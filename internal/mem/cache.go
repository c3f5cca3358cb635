// Package mem implements the scaled multicore memory hierarchy that stands
// in for the paper's Intel Core i7 920 (Nehalem): per-core private L1 and L2
// caches and a shared, inclusive, 16-way last-level cache (L3) with per-line
// core-valid bits, all set-associative with exact LRU replacement, plus a
// main-memory model with optional bandwidth contention.
//
// Contention in this model is emergent, exactly as on real hardware: two
// reference streams that both exceed their private caches compete for L3
// sets and evict each other's lines, which raises both of their LLC miss
// counts — the signal the CAER heuristics consume.
package mem

import (
	"fmt"
	"math/bits"
)

const (
	// maxOwners bounds owner ids: a line's meta byte keeps its owner in
	// seven bits beside the dirty bit.
	maxOwners = 128
	// stampWayBits is the width of the way index in the low bits of an LRU
	// stamp; it covers the 64 ways a WayMask can name.
	stampWayBits = 6
)

// CacheStats aggregates per-cache event counts, cumulative from
// construction.
type CacheStats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	CrossEvictions uint64 // evicted line's owner differed from the inserter
	Writebacks     uint64 // dirty evictions
	Invalidations  uint64 // lines dropped by back-invalidation
}

// Cache is a set-associative cache with line-granular addresses (the
// simulator's unit address already names a 64-byte line, so tag == address),
// exact LRU replacement, owner tracking (which core/application filled each
// line) and optional way-partitioning. It is not safe for concurrent use;
// the machine model serializes accesses.
//
// Line state is kept in parallel set-major arrays (slot = set*ways + way)
// so a probe reads one dense row of tags and a victim choice one dense row
// of stamps.
type Cache struct {
	sets     int
	ways     int
	setMask  uint64
	fullMask WayMask

	tags []uint64
	// stamp holds LRU recency as tick<<stampWayBits | way. Every touch
	// takes a fresh tick, so the stamps of valid ways are unique and the
	// row minimum names the least recently used way in its low bits.
	stamp []uint64
	meta  []uint8  // owner<<1 | dirty
	valid []uint64 // per set: bit w is set while way w holds a line
	tick  uint64

	stats    CacheStats
	masks    []WayMask // per-owner fill mask; nil when unpartitioned
	maskUsed bool
}

// Config describes a cache's geometry.
type Config struct {
	Sets int // must be a power of two
	Ways int
}

// NewCache constructs a cache. It panics on invalid geometry so that a
// misconfigured machine fails loudly at construction time.
func NewCache(cfg Config) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("mem: cache sets must be a positive power of two, got %d (ways %d)", cfg.Sets, cfg.Ways))
	}
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("mem: cache ways must be in 1..64, got %d (sets %d)", cfg.Ways, cfg.Sets))
	}
	// Tags and stamps share one slab so that building a machine allocates
	// no more often than it did with one struct per line. The bitmaps stay
	// out of it: with them the slab of a power-of-two cache would spill
	// into the allocator's next size class.
	lines := cfg.Sets * cfg.Ways
	slab := make([]uint64, 2*lines)
	return &Cache{
		sets:     cfg.Sets,
		ways:     cfg.Ways,
		setMask:  uint64(cfg.Sets - 1),
		fullMask: FullMask(cfg.Ways),
		tags:     slab[:lines:lines],
		stamp:    slab[lines:],
		valid:    make([]uint64, cfg.Sets),
		meta:     make([]uint8, lines),
	}
}

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineCount returns total capacity in lines.
func (c *Cache) LineCount() int { return c.sets * c.ways }

// Stats returns a copy of the cumulative counters.
func (c *Cache) Stats() CacheStats { return c.stats }

func (c *Cache) setOf(addr uint64) int { return int(addr & c.setMask) }

// rowOf returns addr's set and base, the slot of the set's way 0.
func (c *Cache) rowOf(addr uint64) (set, base int) {
	set = c.setOf(addr)
	return set, set * c.ways
}

// find returns the way of the set (whose row starts at base) holding addr,
// or -1. A stale tag left behind in an invalidated way cannot match: the
// valid bit is checked on a tag match.
func (c *Cache) find(set, base int, addr uint64) int {
	live := c.valid[set]
	for w, tag := range c.tags[base : base+c.ways] {
		if tag == addr && live>>(uint(w)&63)&1 != 0 {
			return w
		}
	}
	return -1
}

// touch makes way the most recently used line of the row at base.
func (c *Cache) touch(base, way int) {
	c.tick++
	c.stamp[base+way] = c.tick<<stampWayBits | uint64(way)
}

// older returns the smaller of two stamps without a branch. Which way of a
// row is oldest is as good as random, so a compare-and-jump per way
// mispredicts several times a scan; the borrow of b-a says whether b is
// smaller, and masks the difference in.
func older(a, b uint64) uint64 {
	d, borrow := bits.Sub64(b, a, 0)
	return a + d&-borrow
}

// victim returns the least recently used way of the row at base among
// mask's ways, all of which the caller has found valid.
func (c *Cache) victim(base int, mask WayMask) int {
	row := c.stamp[base : base+c.ways]
	// Two running minima halve the dependency chain of the full-row scan,
	// the hottest loop in the simulator (every LLC miss on a full set).
	o0, o1 := ^uint64(0), ^uint64(0)
	if mask == c.fullMask {
		for ; len(row) >= 2; row = row[2:] {
			o0, o1 = older(o0, row[0]), older(o1, row[1])
		}
		if len(row) == 1 {
			o0 = older(o0, row[0])
		}
	} else {
		for m := uint64(mask); m != 0; m &= m - 1 {
			o0 = older(o0, row[bits.TrailingZeros64(m)])
		}
	}
	return int(older(o0, o1) & (1<<stampWayBits - 1))
}

// lookup probes for addr without inserting. On a hit it updates
// replacement state and the dirty bit (for writes) and returns the slot
// that hit, or -1.
func (c *Cache) lookup(addr uint64, write bool) int {
	c.stats.Accesses++
	set, base := c.rowOf(addr)
	w := c.find(set, base, addr)
	if w < 0 {
		c.stats.Misses++
		return -1
	}
	c.stats.Hits++
	c.meta[base+w] |= dirtyBit(write)
	c.touch(base, w)
	return base + w
}

// Refresh bumps addr's replacement recency if the line is present, without
// touching hit/miss stats. An inclusive L3 uses this as a temporal hint on
// inner-cache hits: lines that are hot in a private L1/L2 never reach the
// L3 through demand accesses, so without hints they age to LRU and get
// evicted (back-invalidating the private copies) by any cache-hungry
// co-runner — the classic inclusion-victim pathology.
func (c *Cache) Refresh(addr uint64) bool {
	set, base := c.rowOf(addr)
	w := c.find(set, base, addr)
	if w < 0 {
		return false
	}
	c.touch(base, w)
	return true
}

// Evicted describes a line displaced by an insert.
type Evicted struct {
	Addr  uint64
	Owner int
	Dirty bool
	Valid bool // false when the insert filled an empty way
}

// dirtyBit is meta's dirty bit for an access. Whether an access writes is
// the workload's coin toss, so the bit is or-ed in rather than branched on.
func dirtyBit(write bool) uint8 {
	var b uint8
	if write {
		b = 1
	}
	return b
}

func (c *Cache) evictedAt(slot int) Evicted {
	m := c.meta[slot]
	return Evicted{Addr: c.tags[slot], Owner: int(m >> 1), Dirty: m&1 != 0, Valid: true}
}

// insert fills addr into the cache on behalf of owner (below 128),
// evicting a victim if the owner's ways of the set are full. It returns
// the slot filled and the displaced line, so that an inclusive outer cache
// can propagate back-invalidations. It does not bump access counters;
// callers pair it with a missed lookup. A free way within the owner's mask
// is always taken before a victim is chosen, so victims are only ever
// picked among valid ways — the ones whose stamps are unique.
func (c *Cache) insert(addr uint64, owner int, write bool) (int, Evicted) {
	set, base := c.rowOf(addr)
	mask := c.maskOf(owner)
	var w int
	var ev Evicted
	if free := uint64(mask) &^ c.valid[set]; free != 0 {
		w = bits.TrailingZeros64(free)
		c.valid[set] |= 1 << uint(w)
	} else {
		w = c.victim(base, mask)
		ev = c.evictedAt(base + w)
		c.stats.Evictions++
		if ev.Owner != owner {
			c.stats.CrossEvictions++
		}
		c.stats.Writebacks += uint64(c.meta[base+w] & 1) // the dirty bit: as unpredictable as dirtyBit's
	}
	c.tags[base+w] = addr
	c.meta[base+w] = uint8(owner)<<1 | dirtyBit(write)
	c.touch(base, w)
	return base + w, ev
}

// Invalidate drops addr if present, returning whether it was held and
// whether it was dirty. Used for inclusive back-invalidation.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, base := c.rowOf(addr)
	if c.valid[set] == 0 {
		return false, false
	}
	w := c.find(set, base, addr)
	if w < 0 {
		return false, false
	}
	c.stats.Invalidations++
	c.valid[set] &^= 1 << uint(w)
	return true, c.meta[base+w]&1 != 0
}

// Flush invalidates every line (stats for invalidations are not bumped; this
// models a context switch / relaunch, not coherence traffic).
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = 0
	}
}

// dropOwned invalidates every line belonging to owner, handing each to
// visit (when non-nil) as it goes. It walks the whole cache: flushes are
// control-plane operations.
func (c *Cache) dropOwned(owner int, visit func(slot int, ev Evicted)) {
	for set := range c.valid {
		for m := c.valid[set]; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			slot := set*c.ways + w
			if int(c.meta[slot]>>1) != owner {
				continue
			}
			c.valid[set] &^= 1 << uint(w)
			if visit != nil {
				visit(slot, c.evictedAt(slot))
			}
		}
	}
}

// SetOwnerMask restricts owner's fills and victim selection to the ways in
// mask (lookups still hit anywhere). Other owners keep the full mask unless
// also confined. Owner's lines already resident outside the new mask stay
// valid: they still hit on lookup and are reclaimed lazily as other owners'
// victim selections evict them. This is what hardware CAT does — masks gate
// fills, not residency. A zero mask or one with bits beyond the cache's
// ways panics. Resizes are control-plane operations — the per-access path
// never calls this.
func (c *Cache) SetOwnerMask(owner int, mask WayMask) {
	if owner < 0 || owner >= maxOwners {
		panic(fmt.Sprintf("mem: partition owner %d out of range", owner))
	}
	if mask == 0 || mask&^c.fullMask != 0 {
		panic(fmt.Sprintf("mem: owner mask %v invalid for %d ways", mask, c.ways))
	}
	if owner >= len(c.masks) {
		grown := make([]WayMask, owner+1)
		for i := range grown {
			grown[i] = c.fullMask
		}
		copy(grown, c.masks)
		c.masks = grown
	}
	c.masks[owner] = mask
	c.maskUsed = true
}

// StrandedLines counts owner's valid lines resident outside its current
// mask — orphans left behind by resizes, still hittable but no longer
// refillable by their owner.
func (c *Cache) StrandedLines(owner int) int {
	outside := ^uint64(c.maskOf(owner))
	n := 0
	for set := range c.valid {
		for m := c.valid[set] & outside; m != 0; m &= m - 1 {
			if int(c.meta[set*c.ways+bits.TrailingZeros64(m)]>>1) == owner {
				n++
			}
		}
	}
	return n
}

func (c *Cache) maskOf(owner int) WayMask {
	if !c.maskUsed || owner < 0 || owner >= len(c.masks) {
		return c.fullMask
	}
	return c.masks[owner]
}
