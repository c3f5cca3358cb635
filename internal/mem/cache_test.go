package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newTestCache(sets, ways int) *Cache {
	return NewCache(Config{Sets: sets, Ways: ways})
}

// hit, fill and holds drive a cache the way Hierarchy.Access does: hit is
// a demand lookup, fill an insert returning the displaced line, and holds
// a probe that touches neither stats nor replacement state.
func hit(c *Cache, addr uint64, write bool) bool { return c.lookup(addr, write) >= 0 }

func fill(c *Cache, addr uint64, owner int, write bool) Evicted {
	_, ev := c.insert(addr, owner, write)
	return ev
}

func holds(c *Cache, addr uint64) bool {
	set, base := c.rowOf(addr)
	return c.find(set, base, addr) >= 0
}

// has reports whether way is in the mask.
func has(m WayMask, way int) bool { return m>>uint(way)&1 != 0 }

func TestNewCacheValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 1},
		{Sets: 3, Ways: 1},
		{Sets: -4, Ways: 1},
		{Sets: 4, Ways: 0},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCache(%+v) did not panic", cfg)
				}
			}()
			NewCache(cfg)
		}()
	}
}

func TestCacheMissThenHit(t *testing.T) {
	c := newTestCache(4, 2)
	if hit(c, 100, false) {
		t.Fatal("hit in empty cache")
	}
	fill(c, 100, 0, false)
	if !hit(c, 100, false) {
		t.Fatal("miss after insert")
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats = %+v, want 2 accesses / 1 hit / 1 miss", s)
	}
}

func TestCacheSetMapping(t *testing.T) {
	c := newTestCache(4, 1)
	// Addresses 0 and 4 map to set 0; with 1 way the second evicts the first.
	fill(c, 0, 0, false)
	ev := fill(c, 4, 0, false)
	if !ev.Valid || ev.Addr != 0 {
		t.Errorf("evicted = %+v, want addr 0", ev)
	}
	if holds(c, 0) {
		t.Error("address 0 still present after conflict eviction")
	}
	if !holds(c, 4) {
		t.Error("address 4 missing after insert")
	}
	// Address 1 maps to set 1: no conflict.
	if ev := fill(c, 1, 0, false); ev.Valid {
		t.Errorf("unexpected eviction %+v inserting into a different set", ev)
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := newTestCache(1, 2)
	fill(c, 0, 0, false) // set 0
	fill(c, 1, 0, false)
	hit(c, 0, false) // make 0 most-recent
	ev := fill(c, 2, 0, false)
	if ev.Addr != 1 {
		t.Errorf("evicted addr = %d, want 1 (LRU)", ev.Addr)
	}
	if !holds(c, 0) || !holds(c, 2) {
		t.Error("expected 0 and 2 resident")
	}
}

func TestCacheCrossEvictionAccounting(t *testing.T) {
	c := newTestCache(1, 2)
	fill(c, 10, 0, false)
	fill(c, 20, 1, false)
	fill(c, 30, 1, false) // evicts owner 0's line -> cross eviction
	s := c.Stats()
	if s.Evictions != 1 || s.CrossEvictions != 1 {
		t.Errorf("evictions=%d cross=%d, want 1,1", s.Evictions, s.CrossEvictions)
	}
	fill(c, 40, 1, false) // evicts an owner-1 line -> same-owner eviction
	s = c.Stats()
	if s.Evictions != 2 || s.CrossEvictions != 1 {
		t.Errorf("evictions=%d cross=%d, want 2,1", s.Evictions, s.CrossEvictions)
	}
}

func TestCacheDirtyWriteback(t *testing.T) {
	c := newTestCache(1, 1)
	fill(c, 5, 0, true) // dirty fill
	ev := fill(c, 6, 0, false)
	if !ev.Dirty {
		t.Error("evicted line should be dirty")
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	// Write hit dirties a clean line.
	fill(c, 7, 0, false)
	hit(c, 7, true)
	ev = fill(c, 8, 0, false)
	if !ev.Dirty {
		t.Error("write hit did not mark line dirty")
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := newTestCache(2, 2)
	fill(c, 9, 0, true)
	present, dirty := c.Invalidate(9)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v,%v), want (true,true)", present, dirty)
	}
	if holds(c, 9) {
		t.Error("line still present after Invalidate")
	}
	present, _ = c.Invalidate(9)
	if present {
		t.Error("second Invalidate reported presence")
	}
	if c.Stats().Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", c.Stats().Invalidations)
	}
}

func TestCacheFlushAndFlushOwner(t *testing.T) {
	c := newTestCache(4, 2)
	fill(c, 0, 0, false)
	fill(c, 1, 1, false)
	fill(c, 2, 0, false)
	c.dropOwned(0, nil)
	if holds(c, 0) || holds(c, 2) {
		t.Error("owner-0 lines survived dropOwned(0)")
	}
	if !holds(c, 1) {
		t.Error("owner-1 line lost by dropOwned(0)")
	}
	c.Flush()
	if holds(c, 1) {
		t.Error("line survived Flush")
	}
}

func TestCacheWayPartitioning(t *testing.T) {
	c := newTestCache(1, 4)
	c.SetOwnerMask(0, ContiguousMask(0, 2))
	c.SetOwnerMask(1, ContiguousMask(2, 4))
	// Owner 0 fills its 2 ways then self-evicts; owner 1's lines untouched.
	fill(c, 100, 1, false)
	fill(c, 101, 1, false)
	for a := uint64(0); a < 10; a++ {
		ev := fill(c, a, 0, false)
		if ev.Valid && ev.Owner == 1 {
			t.Fatalf("partitioned owner 0 evicted owner 1's line %d", ev.Addr)
		}
	}
	if !holds(c, 100) || !holds(c, 101) {
		t.Error("owner 1's lines evicted despite partition")
	}
	c.SetOwnerMask(0, FullMask(4))
	// Now owner 0 may claim all ways.
	evictedOther := false
	for a := uint64(10); a < 20; a++ {
		if ev := fill(c, a, 0, false); ev.Valid && ev.Owner == 1 {
			evictedOther = true
		}
	}
	if !evictedOther {
		t.Error("after widening to the full mask owner 0 never evicted owner 1")
	}
}

func TestCachePartitionValidation(t *testing.T) {
	c := newTestCache(1, 4)
	bad := [][3]int{{-1, 0, 2}, {0, -1, 2}, {0, 2, 5}, {0, 3, 3}, {0, 3, 2}}
	for _, b := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOwnerMask(%d, ContiguousMask(%d, %d)) did not panic", b[0], b[1], b[2])
				}
			}()
			c.SetOwnerMask(b[0], ContiguousMask(b[1], b[2]))
		}()
	}
}

// Property: occupancy never exceeds capacity, per-set residency never
// exceeds associativity, and hits+misses == accesses, under arbitrary
// access streams.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, setsExp, ways uint8, n uint16) bool {
		sets := 1 << (setsExp % 5) // 1..16 sets
		w := int(ways%4) + 1       // 1..4 ways
		c := newTestCache(sets, w)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n%600); i++ {
			addr := uint64(rng.Intn(sets * w * 3))
			owner := rng.Intn(3)
			if !hit(c, addr, rng.Intn(4) == 0) {
				fill(c, addr, owner, false)
			}
			if rng.Intn(10) == 0 {
				c.Invalidate(uint64(rng.Intn(sets * w * 3)))
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: after Insert(addr), Contains(addr) is true, and an immediate
// Lookup hits.
func TestCacheInsertThenHitProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := newTestCache(16, 4)
		for _, a := range addrs {
			addr := uint64(a)
			if !hit(c, addr, false) {
				fill(c, addr, 0, false)
			}
			if !holds(c, addr) || !hit(c, addr, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkCacheAccess times one cache's demand loop: a lookup, and an
// insert on a miss, over a working set three times the cache's 8192 lines.
func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache(Config{Sets: 512, Ways: 16})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(12288))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&4095]
		if !hit(c, a, false) {
			fill(c, a, 0, false)
		}
	}
}
