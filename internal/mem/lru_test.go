package mem

import "testing"

// fillWays inserts addrs into c for owner 0, in order.
func fillWays(c *Cache, addrs ...uint64) {
	for _, a := range addrs {
		fill(c, a, 0, false)
	}
}

func TestLRUVictimIsLeastRecentlyTouched(t *testing.T) {
	c := newTestCache(1, 4)
	fillWays(c, 0, 1, 2, 3)
	hit(c, 0, false) // order now: 1 (oldest), 2, 3, 0
	if ev := fill(c, 4, 0, false); ev.Addr != 1 {
		t.Errorf("evicted %d, want 1", ev.Addr)
	}
	// The fill touched way 1, so 2 is oldest now.
	if ev := fill(c, 5, 0, false); ev.Addr != 2 {
		t.Errorf("evicted %d, want 2", ev.Addr)
	}
}

func TestLRUVictimRespectsRange(t *testing.T) {
	c := newTestCache(1, 8)
	fillWays(c, 0, 1, 2, 3, 4, 5, 6, 7)
	// Way 0 is globally oldest, but the partition only allows [4,8).
	c.SetOwnerMask(0, ContiguousMask(4, 8))
	if ev := fill(c, 8, 0, false); ev.Addr != 4 {
		t.Errorf("evicted %d from ways [4,8), want 4", ev.Addr)
	}
}

func TestLRUSetsAreIndependent(t *testing.T) {
	// One tick orders the whole cache; a set's victim must still depend on
	// its own row alone.
	c := newTestCache(2, 2)
	fillWays(c, 0, 2, 1, 3) // set 0: 0, 2; set 1: 1, 3
	hit(c, 1, false)        // set 1 order: 3 (oldest), 1
	if ev := fill(c, 4, 0, false); ev.Addr != 0 {
		t.Errorf("set 0 evicted %d, want 0", ev.Addr)
	}
	if ev := fill(c, 5, 0, false); ev.Addr != 3 {
		t.Errorf("set 1 evicted %d, want 3", ev.Addr)
	}
}
