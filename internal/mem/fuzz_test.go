package mem

import (
	"slices"
	"testing"
)

// FuzzCachePartition drives random interleavings of partition resizes,
// fills, lookups, and invalidations against a model checker. The invariants
// it holds the cache to:
//
//  1. A fill never lands outside the inserting owner's current mask.
//  2. A resize drops nothing.
//  3. The valid bitmaps name only real ways, no address is valid in two
//     ways of a set, and every valid way's stamp is unique in its row and
//     carries its own way index (the stamp-min victim choice depends on
//     all three).
//  4. Hits + misses == accesses, and every resident line remains hittable.
//
// check.sh runs this for a 10s smoke on top of the seeded corpus below.
func FuzzCachePartition(f *testing.F) {
	f.Add([]byte{0x01, 0x42, 0x83, 0x10, 0x01, 0x55})
	f.Add([]byte{0x02, 0xff, 0x03, 0x0f, 0x04, 0xf0, 0x01, 0x01})
	f.Add([]byte{0x83, 0x01, 0x01, 0x20, 0x02, 0x21, 0x83, 0xfe, 0x01, 0x22})
	f.Add([]byte{0x04, 0x00, 0x84, 0x7f, 0x00, 0x10})

	f.Fuzz(func(t *testing.T, data []byte) {
		const sets, ways, owners = 4, 8, 4
		c := newTestCache(sets, ways)
		masks := [owners]WayMask{} // model of each owner's mask; 0 = full
		maskOf := func(o int) WayMask {
			if masks[o] == 0 {
				return FullMask(ways)
			}
			return masks[o]
		}
		wayOf := func(addr uint64) int {
			set, base := c.rowOf(addr)
			return c.find(set, base, addr)
		}
		checkRows := func() {
			for set := 0; set < sets; set++ {
				if c.valid[set]&^uint64(FullMask(ways)) != 0 {
					t.Fatalf("set %d: valid bitmap %#x names ways beyond %d", set, c.valid[set], ways)
				}
				tags, stamps := map[uint64]int{}, map[uint64]int{}
				for w := 0; w < ways; w++ {
					if !has(WayMask(c.valid[set]), w) {
						continue
					}
					slot := set*ways + w
					if prev, dup := tags[c.tags[slot]]; dup {
						t.Fatalf("set %d: %#x valid in ways %d and %d", set, c.tags[slot], prev, w)
					}
					if prev, dup := stamps[c.stamp[slot]]; dup {
						t.Fatalf("set %d: ways %d and %d share stamp %#x", set, prev, w, c.stamp[slot])
					}
					tags[c.tags[slot]], stamps[c.stamp[slot]] = w, w
					if got := int(c.stamp[slot] & (1<<stampWayBits - 1)); got != w {
						t.Fatalf("set %d way %d: stamp names way %d", set, w, got)
					}
				}
			}
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			owner := int(op>>4) % owners
			switch op % 4 {
			case 0: // lookup
				hit(c, uint64(arg), op&0x80 != 0)
			case 1: // miss-then-fill
				addr := uint64(arg)
				if !hit(c, addr, false) {
					fill(c, addr, owner, op&0x80 != 0)
					w := wayOf(addr)
					if w < 0 {
						t.Fatalf("inserted %#x not resident", addr)
					}
					if !has(maskOf(owner), w) {
						t.Fatalf("owner %d (mask %v) filled way %d", owner, maskOf(owner), w)
					}
				}
			case 2: // resize
				mask := WayMask(arg) & FullMask(ways)
				if mask == 0 {
					mask = 1
				}
				before := slices.Clone(c.valid)
				c.SetOwnerMask(owner, mask)
				if !slices.Equal(c.valid, before) {
					t.Fatalf("resize changed residency: valid %#x -> %#x", before, c.valid)
				}
				masks[owner] = mask
			case 3: // back-invalidate one address
				c.Invalidate(uint64(arg))
			}
			checkRows()
		}
		s := c.Stats()
		if s.Hits+s.Misses != s.Accesses {
			t.Fatalf("stats skew: %d hits + %d misses != %d accesses", s.Hits, s.Misses, s.Accesses)
		}
		// Every resident line is still hittable, masks notwithstanding.
		for slot, tag := range c.tags {
			if has(WayMask(c.valid[slot/ways]), slot%ways) && !holds(c, tag) {
				t.Fatalf("line %d (tag %#x) resident but not hittable", slot, tag)
			}
		}
	})
}
