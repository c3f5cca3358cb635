package mem

import (
	"fmt"
	"math/bits"
)

// maxCores bounds a hierarchy's width: an L3 line's core-valid bits are one
// word (and cores are the L3's owners, so maxOwners must cover them).
const maxCores = 64

// AccessResult reports where an access was satisfied and its cost.
type AccessResult struct {
	Latency uint64 // total cycles for this access
	Level   Level  // level that satisfied the access
}

// Level identifies where in the hierarchy an access hit.
type Level int

// Hierarchy levels, innermost first.
const (
	LevelL1 Level = iota
	LevelL2
	LevelL3
	LevelMemory
)

// String returns the conventional level name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMemory:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// HierarchyConfig describes a private-L1/private-L2/shared-inclusive-L3
// hierarchy for a given number of cores, mirroring Nehalem's topology at a
// documented scale (see DESIGN.md §6).
type HierarchyConfig struct {
	Cores int

	L1Sets, L1Ways int
	L2Sets, L2Ways int
	L3Sets, L3Ways int

	// Hit latencies per level, in cycles. L1 latency is charged on every
	// memory instruction; deeper latencies are charged additionally on
	// misses above them.
	L1Latency, L2Latency, L3Latency uint64

	Memory MemoryConfig

	// DisableL2Hints turns off the temporal hints that L2 hits send to the
	// L3 replacement state. With hints off, lines hot in a private cache
	// age to LRU in the inclusive L3 and are back-invalidated by any
	// streaming co-runner (the inclusion-victim pathology); hints model the
	// protection that miss overlap and hardware mitigations give such lines
	// on real machines.
	DisableL2Hints bool
}

// DefaultHierarchyConfig returns the scaled Nehalem-like configuration used
// throughout the evaluation: 8 KB/4-way L1, 64 KB/8-way L2, shared inclusive
// 512 KB/16-way L3 (64 B lines), 1/6/16-cycle hit latencies and 50-cycle
// memory behind a single channel with a 40-cycle service time.
//
// Latencies are deliberately compressed relative to wall-clock hardware
// ratios: cores here block on every miss, whereas the paper's out-of-order
// Nehalem overlaps much of a miss's latency with independent work, so the
// *effective* stall per miss — the quantity that shapes Figures 1 and 6 —
// is a fraction of the raw DRAM latency.
//
// The channel service time makes bandwidth a secondary contention channel:
// a lone streamer (lbm) leaves plenty of headroom, while several heavy
// missers queue moderately — reproducing the bandwidth component of
// cross-core interference that capacity sharing alone cannot model.
func DefaultHierarchyConfig(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores: cores,
		// 64B lines: 8KB/4w -> 32 sets; 64KB/8w -> 128 sets; 512KB/16w -> 512 sets.
		L1Sets: 32, L1Ways: 4,
		L2Sets: 128, L2Ways: 8,
		L3Sets: 512, L3Ways: 16,
		L1Latency: 1, L2Latency: 6, L3Latency: 16,
		Memory: MemoryConfig{LatencyCycles: 50, ServiceCycles: 40},
	}
}

// Hierarchy is the full multicore memory system. Core i owns private caches
// l1[i], l2[i]; all cores share the inclusive l3. Not safe for concurrent
// use.
type Hierarchy struct {
	cfg HierarchyConfig
	l1  []*Cache
	l2  []*Cache
	l3  *Cache
	mem *MainMemory

	// coreValid holds, per L3 slot, Nehalem's core-valid bits: bit c is set
	// when core c fills a private cache from the line and all bits reset
	// when the slot is refilled, never earlier. A private copy therefore
	// implies a set bit, and back-invalidation visits only those cores.
	coreValid []uint64
	// l3Way holds, per core and L2 slot, the L3 way the L2 line was filled
	// from, so an L2 hit's temporal hint finds the L3 line without a scan.
	l3Way [][]uint8

	// Per-core counters the PMU exposes.
	llcMisses   []uint64
	llcAccesses []uint64
	l2Misses    []uint64
}

// NewHierarchy builds the hierarchy. It panics on invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 || cfg.Cores > maxCores {
		panic(fmt.Sprintf("mem: hierarchy cores must be in 1..%d, got %d", maxCores, cfg.Cores))
	}
	h := &Hierarchy{
		cfg:         cfg,
		l1:          make([]*Cache, cfg.Cores),
		l2:          make([]*Cache, cfg.Cores),
		mem:         NewMainMemory(cfg.Memory),
		llcMisses:   make([]uint64, cfg.Cores),
		llcAccesses: make([]uint64, cfg.Cores),
		l2Misses:    make([]uint64, cfg.Cores),
		l3Way:       make([][]uint8, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = NewCache(Config{Sets: cfg.L1Sets, Ways: cfg.L1Ways})
		h.l2[i] = NewCache(Config{Sets: cfg.L2Sets, Ways: cfg.L2Ways})
		h.l3Way[i] = make([]uint8, h.l2[i].LineCount())
	}
	h.l3 = NewCache(Config{Sets: cfg.L3Sets, Ways: cfg.L3Ways})
	h.coreValid = make([]uint64, h.l3.LineCount())
	return h
}

// Cores returns the number of cores the hierarchy serves.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// L3 exposes the shared cache (for partitioning and occupancy inspection).
func (h *Hierarchy) L3() *Cache { return h.l3 }

// L1 returns core's private L1.
func (h *Hierarchy) L1(core int) *Cache { return h.l1[core] }

// L2 returns core's private L2.
func (h *Hierarchy) L2(core int) *Cache { return h.l2[core] }

// Access performs one memory reference by core to line address addr at
// absolute cycle now, updating all levels (fills on misses, inclusive
// back-invalidation on L3 evictions) and the per-core LLC counters.
func (h *Hierarchy) Access(core int, addr uint64, write bool, now uint64) AccessResult {
	l1 := h.l1[core]
	lat := h.cfg.L1Latency
	if l1.lookup(addr, write) >= 0 {
		return AccessResult{Latency: lat, Level: LevelL1}
	}
	l2, l3 := h.l2[core], h.l3
	lat += h.cfg.L2Latency
	if s2 := l2.lookup(addr, write); s2 >= 0 {
		l1.insert(addr, core, write)
		if !h.cfg.DisableL2Hints {
			h.hintL3(addr, int(h.l3Way[core][s2]))
		}
		return AccessResult{Latency: lat, Level: LevelL2}
	}
	h.l2Misses[core]++
	lat += h.cfg.L3Latency
	h.llcAccesses[core]++
	level := LevelL3
	s3 := l3.lookup(addr, write)
	if s3 >= 0 {
		h.coreValid[s3] |= 1 << uint(core)
	} else {
		// LLC miss: go to memory, fill all levels inward.
		level = LevelMemory
		h.llcMisses[core]++
		lat += h.mem.Access(now)
		var ev Evicted
		s3, ev = l3.insert(addr, core, write)
		holders := h.coreValid[s3]
		h.coreValid[s3] = 1 << uint(core)
		if ev.Valid {
			h.backInvalidate(ev.Addr, holders)
		}
	}
	// Private-cache evictions need no back-invalidation (L3 is inclusive,
	// so the line is still present there).
	s2, _ := l2.insert(addr, core, write)
	_, base3 := l3.rowOf(addr)
	h.l3Way[core][s2] = uint8(s3 - base3)
	l1.insert(addr, core, write)
	return AccessResult{Latency: lat, Level: level}
}

// hintL3 is l3.Refresh(addr) for a line an L2 remembers filling from L3 way
// way. The slot is checked, so a stale memory costs a scan, never a wrong
// touch: addr occupies at most one valid way of its set, and either path
// touches exactly that way or nothing.
func (h *Hierarchy) hintL3(addr uint64, way int) {
	l3 := h.l3
	set, base := l3.rowOf(addr)
	if l3.tags[base+way] == addr && l3.valid[set]>>(uint(way)&63)&1 != 0 {
		l3.touch(base, way)
		return
	}
	l3.Refresh(addr)
}

// backInvalidate enforces inclusion: a line leaving the L3 must leave the
// private caches of every core in holders, its core-valid bits.
func (h *Hierarchy) backInvalidate(addr uint64, holders uint64) {
	for ; holders != 0; holders &= holders - 1 {
		i := bits.TrailingZeros64(holders)
		h.l1[i].Invalidate(addr)
		h.l2[i].Invalidate(addr)
	}
}

// SetL3OwnerMask resizes owner's L3 partition to mask (Cache.SetOwnerMask:
// lines stranded outside it stay resident, so inclusion is untouched).
func (h *Hierarchy) SetL3OwnerMask(owner int, mask WayMask) { h.l3.SetOwnerMask(owner, mask) }

// dropped back-invalidates an L3 line a flush has just dropped.
func (h *Hierarchy) dropped(slot int, ev Evicted) {
	h.backInvalidate(ev.Addr, h.coreValid[slot])
}

// LLCMisses returns core's cumulative LLC (L3) miss count. This is the
// counter a PMU LLC_MISSES event reads.
func (h *Hierarchy) LLCMisses(core int) uint64 { return h.llcMisses[core] }

// LLCAccesses returns core's cumulative L3 accesses (L2 misses that reached
// the shared cache).
func (h *Hierarchy) LLCAccesses(core int) uint64 { return h.llcAccesses[core] }

// L2Misses returns core's cumulative private-L2 miss count.
func (h *Hierarchy) L2Misses(core int) uint64 { return h.l2Misses[core] }

// FlushCore empties core's private caches and its lines in the shared L3
// (models process teardown when a service or job leaves the core). Other
// cores' private copies of those L3 lines go with them, or inclusion would
// break.
func (h *Hierarchy) FlushCore(core int) {
	h.l1[core].Flush()
	h.l2[core].Flush()
	h.l3.dropOwned(core, h.dropped)
}
