package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fillOwner warms every way of every set with owner's lines. Addresses are
// set + sets*way so each set's row is fully valid afterwards.
func fillOwner(c *Cache, owner int) {
	for set := 0; set < c.sets; set++ {
		for way := 0; way < c.Ways(); way++ {
			addr := uint64(set + c.sets*way)
			if !hit(c, addr, false) {
				fill(c, addr, owner, false)
			}
		}
	}
}

func TestSetOwnerMaskOrphanKeepsLines(t *testing.T) {
	c := newTestCache(4, 8)
	fillOwner(c, 0)
	low := ContiguousMask(0, 4)
	c.SetOwnerMask(0, low)
	if got := c.maskOf(0); got != low {
		t.Fatalf("OwnerMask(0) = %v, want %v", got, low)
	}
	// Every previously resident line still hits: masks gate fills, not
	// visibility.
	for set := 0; set < c.sets; set++ {
		for way := 0; way < c.Ways(); way++ {
			if addr := uint64(set + c.sets*way); !holds(c, addr) {
				t.Fatalf("orphan resize dropped resident line %#x", addr)
			}
		}
	}
	// The ways outside the mask are exactly the stranded ones.
	if got, want := c.StrandedLines(0), c.sets*4; got != want {
		t.Fatalf("StrandedLines(0) = %d, want %d", got, want)
	}
	// New fills land only inside the mask: flood owner 0 with fresh
	// addresses and verify the out-of-mask lines survive untouched.
	for set := 0; set < c.sets; set++ {
		for i := 0; i < 16; i++ {
			addr := uint64(set + c.sets*(100+i))
			if !hit(c, addr, false) {
				fill(c, addr, 0, false)
			}
		}
	}
	for set := 0; set < c.sets; set++ {
		for way := 4; way < c.Ways(); way++ {
			if addr := uint64(set + c.sets*way); !holds(c, addr) {
				t.Fatalf("confined fills evicted out-of-mask line %#x", addr)
			}
		}
	}
}

func TestSetOwnerMaskWidensAgain(t *testing.T) {
	c := newTestCache(4, 4)
	c.SetOwnerMask(1, ContiguousMask(0, 2))
	c.SetOwnerMask(1, FullMask(4))
	if got := c.maskOf(1); got != FullMask(4) {
		t.Fatalf("OwnerMask after widening = %v", got)
	}
	c.SetOwnerMask(2, ContiguousMask(1, 3))
	if got := c.maskOf(0); got != FullMask(4) {
		t.Fatalf("unconfined owner mask = %v, want full", got)
	}
}

func TestSetOwnerMaskValidation(t *testing.T) {
	c := newTestCache(4, 8)
	cases := []struct {
		name  string
		owner int
		mask  WayMask
	}{
		{"negative owner", -1, FullMask(8)},
		{"owner too large", 128, FullMask(8)},
		{"zero mask", 0, 0},
		{"mask beyond ways", 0, WayMask(1) << 8},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: SetOwnerMask did not panic", tc.name)
				}
			}()
			c.SetOwnerMask(tc.owner, tc.mask)
		}()
	}
}

// TestVictimMaskFullEquivalence pins the differential contract the
// full-mask partition pin relies on: a cache whose owners all hold an
// explicit full mask evicts exactly what an unpartitioned cache evicts, for
// any interleaving of hits and fills.
func TestVictimMaskFullEquivalence(t *testing.T) {
	const sets, ways, owners = 8, 8, 3
	a, b := newTestCache(sets, ways), newTestCache(sets, ways)
	for o := 0; o < owners; o++ {
		b.SetOwnerMask(o, FullMask(ways))
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20_000; i++ {
		addr, owner, write := uint64(rng.Intn(sets*ways*2)), rng.Intn(owners), rng.Intn(4) == 0
		ha, hb := hit(a, addr, write), hit(b, addr, write)
		if ha != hb {
			t.Fatalf("step %d: lookup %#x hit %v unpartitioned, %v under full masks", i, addr, ha, hb)
		}
		if ha {
			continue
		}
		if ea, eb := fill(a, addr, owner, write), fill(b, addr, owner, write); ea != eb {
			t.Fatalf("step %d: evicted %+v unpartitioned, %+v under full masks", i, ea, eb)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

// TestVictimMaskStaysInMask: for any non-empty mask over a full set, the
// victim is a way the mask permits, and the least recently touched of them.
func TestVictimMaskStaysInMask(t *testing.T) {
	const sets, ways = 4, 8
	c := newTestCache(sets, ways)
	fillOwner(c, 0)
	prop := func(raw uint8, set uint8, touches []uint16) bool {
		mask := WayMask(raw)
		if mask == 0 {
			mask = 1
		}
		s := int(set) % sets
		for _, tw := range touches {
			c.touch(int(tw)%sets*ways, int(tw>>4)%ways)
		}
		v := c.victim(s*ways, mask)
		if v < 0 || v >= ways || !has(mask, v) {
			t.Logf("victim %d outside mask %v", v, mask)
			return false
		}
		for w := 0; w < ways; w++ {
			if has(mask, w) && c.stamp[s*ways+w] < c.stamp[s*ways+v] {
				t.Logf("victim %d is younger than way %d in mask %v", v, w, mask)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestConfinementNeverHurtsProtectedOwner replays one fixed trace — a
// sensitive owner with a working set larger than its fair share, against an
// aggressor sweeping the whole cache — under a sequence of progressively
// smaller aggressor masks, and asserts the monotonicity the response family
// banks on: shrinking the aggressor's partition never increases the
// sensitive owner's misses.
func TestConfinementNeverHurtsProtectedOwner(t *testing.T) {
	const sets, ways = 16, 8
	trace := func(rng *rand.Rand) (owner int, addr uint64, write bool) {
		if rng.Intn(2) == 0 {
			return 0, uint64(rng.Intn(sets * ways / 2)), false // sensitive: half the cache
		}
		return 1, uint64(sets*ways + rng.Intn(sets*ways*2)), rng.Intn(4) == 0 // aggressor sweep
	}
	missesWith := func(aggMask WayMask) uint64 {
		c := newTestCache(sets, ways)
		c.SetOwnerMask(0, ContiguousMask(ways/2, ways))
		c.SetOwnerMask(1, aggMask)
		rng := rand.New(rand.NewSource(5))
		var sensMisses uint64
		for i := 0; i < 40_000; i++ {
			owner, addr, write := trace(rng)
			if !hit(c, addr, write) {
				fill(c, addr, owner, write)
				if owner == 0 {
					sensMisses++
				}
			}
		}
		return sensMisses
	}
	prev := missesWith(FullMask(ways))
	for hi := ways; hi > 1; hi-- { // aggressor shrinks 8 -> 1 ways
		cur := missesWith(ContiguousMask(0, hi-1))
		if cur > prev {
			t.Fatalf("shrinking aggressor to %d ways raised sensitive misses %d -> %d", hi-1, prev, cur)
		}
		prev = cur
	}
}

// TestPartitionPathAllocFree pins the per-access allocation contract under
// confinement: mask lookup, the confined free-way scan, and the confined
// victim scan are all on the per-period path and must not allocate.
func TestPartitionPathAllocFree(t *testing.T) {
	c := newTestCache(16, 8)
	c.SetOwnerMask(1, WayMask(0b0011_0110)) // non-contiguous
	fillOwner(c, 0)
	var addr uint64
	if n := testing.AllocsPerRun(200, func() {
		addr++
		if !hit(c, addr%1024, false) {
			fill(c, addr%1024, 1, false)
		}
		c.maskOf(1)
	}); n != 0 {
		t.Fatalf("confined lookup+insert allocates %v/op, want 0", n)
	}
}

// TestDisjointWayMasksIsolateCore: with the L3 split into disjoint way
// masks, the level that satisfies each of core 0's accesses does not depend
// on what core 1 runs — the isolation a worst-case fill bound for a
// partitioned core rests on. Only the level is compared: the memory
// channel is still shared, so latencies may differ.
func TestDisjointWayMasksIsolateCore(t *testing.T) {
	const accesses = 50_000
	levels := func(k int, seed int64, corunner bool) []Level {
		h := NewHierarchy(DefaultHierarchyConfig(2))
		h.SetL3OwnerMask(0, ContiguousMask(0, k))
		h.SetL3OwnerMask(1, ContiguousMask(k, h.L3().Ways()))
		own := rand.New(rand.NewSource(seed))
		other := rand.New(rand.NewSource(seed + 1))
		footprint := uint64(h.L3().LineCount())
		out := make([]Level, accesses)
		for i := range out {
			now := uint64(4 * i)
			addr := own.Uint64() % footprint
			if own.Intn(2) == 0 {
				addr %= uint64(h.L2(0).LineCount()) // a hot set the private caches can hold
			}
			out[i] = h.Access(0, addr, own.Intn(4) == 0, now).Level
			for j := other.Intn(3); corunner && j > 0; j-- {
				h.Access(1, footprint+other.Uint64()%(2*footprint), other.Intn(4) == 0, now+uint64(j))
			}
		}
		return out
	}
	seeds := 8
	if raceEnabled { // one goroutine: nothing for the detector to see, at 15x the cost
		seeds = 2
	}
	rng := rand.New(rand.NewSource(1))
	for s := 0; s < seeds; s++ {
		seed, k := rng.Int63(), 1+rng.Intn(15)
		alone, shared := levels(k, seed, false), levels(k, seed, true)
		for i := range alone {
			if alone[i] != shared[i] {
				t.Fatalf("seed %d, core 0 on ways [0,%d): access %d hit %v alone but %v next to core 1",
					seed, k, i, alone[i], shared[i])
			}
		}
	}
}
