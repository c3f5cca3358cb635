package mem

import (
	"math/rand"
	"testing"
)

// The reference hierarchy: the same machine as Hierarchy written the
// obvious way — one struct per line, a recency counter per line, every
// probe a scan, every back-invalidation a broadcast to every core, every
// temporal hint a search. It has no valid bitmaps, no packed stamps, no
// core-valid bits and no remembered L3 ways, so agreement with it pins
// each of those as a pure optimisation (DESIGN.md §11).

type refLine struct {
	addr  uint64
	owner int
	dirty bool
	valid bool
	used  uint64 // the cache's clock when the line was last touched
}

type refCache struct {
	rows  [][]refLine // [set][way]
	clock uint64
	stats CacheStats
	masks map[int]WayMask
}

func newRefCache(sets, ways int) *refCache {
	c := &refCache{rows: make([][]refLine, sets), masks: map[int]WayMask{}}
	for i := range c.rows {
		c.rows[i] = make([]refLine, ways)
	}
	return c
}

func (c *refCache) row(addr uint64) []refLine { return c.rows[addr%uint64(len(c.rows))] }

func (c *refCache) find(addr uint64) *refLine {
	row := c.row(addr)
	for w := range row {
		if row[w].valid && row[w].addr == addr {
			return &row[w]
		}
	}
	return nil
}

func (c *refCache) touch(ln *refLine) {
	c.clock++
	ln.used = c.clock
}

func (c *refCache) lookup(addr uint64, write bool) bool {
	c.stats.Accesses++
	ln := c.find(addr)
	if ln == nil {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	ln.dirty = ln.dirty || write
	c.touch(ln)
	return true
}

func (c *refCache) refresh(addr uint64) {
	if ln := c.find(addr); ln != nil {
		c.touch(ln)
	}
}

func (c *refCache) maskOf(owner int) WayMask {
	if m, ok := c.masks[owner]; ok {
		return m
	}
	return FullMask(len(c.rows[0]))
}

// insert fills the lowest free way of owner's mask, or else replaces the
// least recently touched line within the mask.
func (c *refCache) insert(addr uint64, owner int, write bool) (ev Evicted) {
	row, mask := c.row(addr), c.maskOf(owner)
	var dst *refLine
	for w := range row {
		if has(mask, w) && !row[w].valid {
			dst = &row[w]
			break
		}
	}
	if dst == nil {
		for w := range row {
			if has(mask, w) && (dst == nil || row[w].used < dst.used) {
				dst = &row[w]
			}
		}
		ev = Evicted{Addr: dst.addr, Owner: dst.owner, Dirty: dst.dirty, Valid: true}
		c.stats.Evictions++
		if dst.owner != owner {
			c.stats.CrossEvictions++
		}
		if dst.dirty {
			c.stats.Writebacks++
		}
	}
	*dst = refLine{addr: addr, owner: owner, dirty: write, valid: true}
	c.touch(dst)
	return ev
}

func (c *refCache) invalidate(addr uint64) {
	if ln := c.find(addr); ln != nil {
		c.stats.Invalidations++
		ln.valid = false
	}
}

func (c *refCache) flush() {
	for _, row := range c.rows {
		for w := range row {
			row[w].valid = false
		}
	}
}

// dropOwned invalidates owner's lines and returns their addresses.
func (c *refCache) dropOwned(owner int) []uint64 {
	var gone []uint64
	for _, row := range c.rows {
		for w := range row {
			if row[w].valid && row[w].owner == owner {
				row[w].valid = false
				gone = append(gone, row[w].addr)
			}
		}
	}
	return gone
}

type refHierarchy struct {
	cfg                              HierarchyConfig
	l1, l2                           []*refCache
	l3                               *refCache
	mem                              *MainMemory
	llcMisses, llcAccesses, l2Misses []uint64
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	r := &refHierarchy{
		cfg: cfg, l3: newRefCache(cfg.L3Sets, cfg.L3Ways), mem: NewMainMemory(cfg.Memory),
		llcMisses: make([]uint64, cfg.Cores), llcAccesses: make([]uint64, cfg.Cores), l2Misses: make([]uint64, cfg.Cores),
	}
	for i := 0; i < cfg.Cores; i++ {
		r.l1 = append(r.l1, newRefCache(cfg.L1Sets, cfg.L1Ways))
		r.l2 = append(r.l2, newRefCache(cfg.L2Sets, cfg.L2Ways))
	}
	return r
}

func (r *refHierarchy) access(core int, addr uint64, write bool, now uint64) AccessResult {
	lat := r.cfg.L1Latency
	if r.l1[core].lookup(addr, write) {
		return AccessResult{Latency: lat, Level: LevelL1}
	}
	lat += r.cfg.L2Latency
	if r.l2[core].lookup(addr, write) {
		r.l1[core].insert(addr, core, write)
		if !r.cfg.DisableL2Hints {
			r.l3.refresh(addr)
		}
		return AccessResult{Latency: lat, Level: LevelL2}
	}
	r.l2Misses[core]++
	r.llcAccesses[core]++
	lat += r.cfg.L3Latency
	level := LevelL3
	if !r.l3.lookup(addr, write) {
		level = LevelMemory
		r.llcMisses[core]++
		lat += r.mem.Access(now)
		if ev := r.l3.insert(addr, core, write); ev.Valid {
			r.backInvalidate(ev.Addr)
		}
	}
	r.l2[core].insert(addr, core, write)
	r.l1[core].insert(addr, core, write)
	return AccessResult{Latency: lat, Level: level}
}

func (r *refHierarchy) backInvalidate(addr uint64) {
	for i := range r.l1 {
		r.l1[i].invalidate(addr)
		r.l2[i].invalidate(addr)
	}
}

func (r *refHierarchy) flushCore(core int) {
	r.l1[core].flush()
	r.l2[core].flush()
	for _, addr := range r.l3.dropOwned(core) {
		r.backInvalidate(addr)
	}
}

// hierOp is one step of a lockstep run.
type hierOp struct {
	kind  uint8 // opAccess, opResize, opFlush
	core  int
	addr  uint64
	write bool
	mask  WayMask
}

const (
	opAccess = iota
	opResize
	opFlush
)

// lockstepConfig is a small geometry (L1 8, L2 32, L3 64·cores/2 lines)
// so that a few thousand operations evict, back-invalidate and refill
// every level many times over.
func lockstepConfig(cores int, hints bool) HierarchyConfig {
	return HierarchyConfig{
		Cores:  cores,
		L1Sets: 4, L1Ways: 2,
		L2Sets: 8, L2Ways: 4,
		L3Sets: 16, L3Ways: 2 * cores,
		L1Latency: 1, L2Latency: 10, L3Latency: 30,
		Memory:         MemoryConfig{LatencyCycles: 100, ServiceCycles: 40},
		DisableL2Hints: !hints,
	}
}

// lockstep is a Hierarchy and the reference driven through the same
// operations.
type lockstep struct {
	t    testing.TB
	h    *Hierarchy
	ref  *refHierarchy
	step int
}

func newLockstep(t testing.TB, cfg HierarchyConfig) *lockstep {
	return &lockstep{t: t, h: NewHierarchy(cfg), ref: newRefHierarchy(cfg)}
}

// run applies ops to both sides and fails at the first step where anything
// observable differs.
func (l *lockstep) run(ops []hierOp) {
	l.t.Helper()
	h, ref := l.h, l.ref
	for _, op := range ops {
		switch op.kind {
		case opAccess:
			now := uint64(l.step) * 7
			got, want := h.Access(op.core, op.addr, op.write, now), ref.access(op.core, op.addr, op.write, now)
			if got != want {
				l.t.Fatalf("step %d: Access(%d, %#x, %v) = %+v, reference %+v", l.step, op.core, op.addr, op.write, got, want)
			}
		case opResize:
			h.SetL3OwnerMask(op.core, op.mask)
			ref.l3.masks[op.core] = op.mask
		case opFlush:
			h.FlushCore(op.core)
			ref.flushCore(op.core)
		}
		compareHierarchies(l.t, l.step, h, ref)
		l.step++
	}
}

func compareHierarchies(t testing.TB, step int, h *Hierarchy, ref *refHierarchy) {
	t.Helper()
	compareCaches(t, step, "L3", h.l3, ref.l3)
	for core := 0; core < h.Cores(); core++ {
		compareCaches(t, step, levelName(h, h.l1[core]), h.l1[core], ref.l1[core])
		compareCaches(t, step, levelName(h, h.l2[core]), h.l2[core], ref.l2[core])
		if h.LLCMisses(core) != ref.llcMisses[core] || h.LLCAccesses(core) != ref.llcAccesses[core] || h.L2Misses(core) != ref.l2Misses[core] {
			t.Fatalf("step %d: core %d counters llc-miss/llc-access/l2-miss = %d/%d/%d, reference %d/%d/%d", step, core,
				h.LLCMisses(core), h.LLCAccesses(core), h.L2Misses(core), ref.llcMisses[core], ref.llcAccesses[core], ref.l2Misses[core])
		}
		// Inclusion, and the invariant back-invalidation leans on: whoever
		// holds a private copy has its core-valid bit set on the L3 line.
		for _, c := range []*Cache{h.l1[core], h.l2[core]} {
			for _, addr := range residents(c) {
				set, base := h.l3.rowOf(addr)
				w := h.l3.find(set, base, addr)
				if w < 0 {
					t.Fatalf("step %d: inclusion violated: %s holds %#x which is not in L3", step, levelName(h, c), addr)
				}
				if h.coreValid[base+w]>>uint(core)&1 == 0 {
					t.Fatalf("step %d: %s holds %#x but core %d's valid bit is clear (bits %#b)", step, levelName(h, c), addr, core, h.coreValid[base+w])
				}
			}
		}
	}
}

// compareCaches checks stats and, way by way, residency, owner and dirty
// state.
func compareCaches(t testing.TB, step int, name string, c *Cache, ref *refCache) {
	t.Helper()
	if c.Stats() != ref.stats {
		t.Fatalf("step %d: %s stats %+v, reference %+v", step, name, c.Stats(), ref.stats)
	}
	for set, row := range ref.rows {
		for w, want := range row {
			slot := set*c.ways + w
			valid := has(WayMask(c.valid[set]), w)
			if valid != want.valid {
				t.Fatalf("step %d: %s set %d way %d valid=%v, reference %v", step, name, set, w, valid, want.valid)
			}
			if !valid {
				continue
			}
			if got := c.evictedAt(slot); got.Addr != want.addr || got.Owner != want.owner || got.Dirty != want.dirty {
				t.Fatalf("step %d: %s set %d way %d holds %+v, reference %+v", step, name, set, w, got, want)
			}
		}
	}
}

// randomOps draws a seeded operation stream: mostly accesses, each core to
// its own region or (share of the time) to a region all cores share, with
// occasional partition resizes and core flushes.
func randomOps(seed int64, cfg HierarchyConfig, n int, shared float64) []hierOp {
	rng := rand.New(rand.NewSource(seed))
	span := 3 * cfg.L3Sets * cfg.L3Ways / cfg.Cores // per-core footprint: the cores together overflow the L3 threefold
	ops := make([]hierOp, n)
	for i := range ops {
		core := rng.Intn(cfg.Cores)
		switch r := rng.Intn(400); {
		case r < 3:
			mask := WayMask(rng.Int63()) & FullMask(cfg.L3Ways)
			if mask == 0 {
				mask = 1 << uint(rng.Intn(cfg.L3Ways))
			}
			ops[i] = hierOp{kind: opResize, core: core, mask: mask}
		case r < 5:
			ops[i] = hierOp{kind: opFlush, core: core}
		default:
			addr := uint64(core+1)<<20 | uint64(rng.Intn(span))
			if rng.Float64() < shared {
				addr = uint64(rng.Intn(span))
			}
			ops[i] = hierOp{kind: opAccess, core: core, addr: addr, write: rng.Intn(4) == 0}
		}
	}
	return ops
}

// TestHierarchyMatchesReference is the differential pin of the cache core:
// 2/4/8 cores, disjoint and shared address streams, hints on and off,
// resizes and flushes, compared after every step.
func TestHierarchyMatchesReference(t *testing.T) {
	n := 20_000
	if testing.Short() || raceEnabled { // one goroutine: nothing for the detector to see, at 50x the cost
		n = 4_000
	}
	for _, cores := range []int{2, 4, 8} {
		for _, shared := range []float64{0, 0.3} {
			for _, hints := range []bool{true, false} {
				cfg := lockstepConfig(cores, hints)
				newLockstep(t, cfg).run(randomOps(int64(cores)*100+int64(shared*10), cfg, n, shared))
			}
		}
	}
}

// TestStaleWayHintFallsBackToScan: the L3 way an L2 line remembers is only
// a hint. Inclusion keeps it right, so the test has to wreck them by hand,
// over and over; the hierarchy must go on agreeing with the reference.
func TestStaleWayHintFallsBackToScan(t *testing.T) {
	cfg := lockstepConfig(2, true)
	l := newLockstep(t, cfg)
	for ops := randomOps(7, cfg, 8_000, 0.3); len(ops) > 0; ops = ops[20:] {
		l.run(ops[:20])
		for _, ways := range l.h.l3Way {
			for i := range ways {
				ways[i] = (ways[i] + 1) % uint8(cfg.L3Ways)
			}
		}
	}
}

// decodeOps turns fuzz bytes into operations, three bytes each: a
// core/opcode byte (low nibble 0xe resize, 0xf flush, anything else an
// access that writes when odd) and a 16-bit
// argument. Addresses below 0x8000 are shared by all cores; the rest are
// moved into the core's own region.
func decodeOps(data []byte, cfg HierarchyConfig) []hierOp {
	var ops []hierOp
	for i := 0; i+2 < len(data); i += 3 {
		op, arg := data[i], uint64(data[i+1])<<8|uint64(data[i+2])
		core := int(op>>4) % cfg.Cores
		switch op & 0xf {
		case 0xe:
			mask := WayMask(arg) & FullMask(cfg.L3Ways)
			if mask == 0 {
				mask = 1
			}
			ops = append(ops, hierOp{kind: opResize, core: core, mask: mask})
		case 0xf:
			ops = append(ops, hierOp{kind: opFlush, core: core})
		default:
			addr := arg
			if addr >= 0x8000 {
				addr = uint64(core+1)<<20 | addr&0x7fff
			}
			ops = append(ops, hierOp{kind: opAccess, core: core, addr: addr, write: op&1 != 0})
		}
	}
	return ops
}

// FuzzHierarchy runs the lockstep harness over fuzzer-chosen operation
// sequences. check.sh runs it for a 10s smoke on top of the seeded corpus.
func FuzzHierarchy(f *testing.F) {
	// Two cores share a line, its owner is flushed (the inclusion bug
	// FlushCore had), and the survivor reads it again.
	f.Add([]byte{0x00, 0x00, 0x64, 0x10, 0x00, 0x64, 0x0f, 0x00, 0x00, 0x10, 0x00, 0x64})
	// One L3 set overfilled from three cores, with writes.
	f.Add([]byte{0x00, 0x00, 0x03, 0x11, 0x00, 0x13, 0x20, 0x00, 0x23, 0x01, 0x00, 0x33, 0x10, 0x00, 0x43,
		0x21, 0x00, 0x53, 0x00, 0x00, 0x63, 0x10, 0x00, 0x73, 0x20, 0x00, 0x83, 0x00, 0x00, 0x03})
	// Confine, fill, shrink, refill, widen, flush.
	f.Add([]byte{0x0e, 0x00, 0x0f, 0x00, 0x80, 0x01, 0x00, 0x80, 0x11, 0x00, 0x80, 0x21, 0x00, 0x80, 0x31,
		0x0e, 0x00, 0x03, 0x00, 0x80, 0x01, 0x0e, 0x00, 0xff, 0x0f, 0x00, 0x00})
	// A core confined to one way evicts a line another core also holds.
	f.Add([]byte{0x10, 0x00, 0x05, 0x00, 0x00, 0x05, 0x1e, 0x00, 0x01, 0x10, 0x00, 0x15, 0x10, 0x00, 0x25, 0x00, 0x00, 0x05})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := lockstepConfig(4, len(data)%2 == 0)
		newLockstep(t, cfg).run(decodeOps(data, cfg))
	})
}

// TestFlushCoreKeepsInclusion: flushing the owner of a line another core
// also holds must take the other core's private copies with it.
func TestFlushCoreKeepsInclusion(t *testing.T) {
	h := newTestHierarchy(2)
	h.Access(0, 100, false, 0)
	h.Access(1, 100, false, 0)
	h.FlushCore(0)
	checkInclusion(t, h)
}

func TestNewHierarchyRejectsTooManyCores(t *testing.T) {
	cfg := lockstepConfig(2, true)
	cfg.Cores = maxCores
	NewHierarchy(cfg) // the widest supported machine builds
	defer func() {
		if recover() == nil {
			t.Errorf("NewHierarchy with %d cores did not panic", maxCores+1)
		}
	}()
	cfg.Cores++
	NewHierarchy(cfg)
}

// TestHierarchyAccessAllocFree: the per-access path of a warm hierarchy
// that is evicting and back-invalidating allocates nothing, whether the
// owner is confined or not. Core 0 loops over a set that lives in its L1,
// so its L3 copies age until core 1's stream evicts them.
func TestHierarchyAccessAllocFree(t *testing.T) {
	for _, confined := range []bool{false, true} {
		h := NewHierarchy(DefaultHierarchyConfig(2))
		if confined {
			h.SetL3OwnerMask(0, WayMask(0b0011_0110))
		}
		var i uint64
		step := func() {
			if i&1 == 0 {
				h.Access(0, i/2%64, i&2 == 0, i)
			} else {
				h.Access(1, 1<<20+i, false, i)
			}
			i++
		}
		for i < uint64(4*h.L3().LineCount()) {
			step()
		}
		before := h.L1(0).Stats().Invalidations
		if n := testing.AllocsPerRun(20_000, step); n != 0 {
			t.Errorf("confined=%v: Access allocates %v/op, want 0", confined, n)
		}
		if h.L1(0).Stats().Invalidations == before {
			t.Errorf("confined=%v: the measured accesses never back-invalidated", confined)
		}
	}
}

// TestNewHierarchyAllocBudget: building a machine's hierarchy takes no
// more allocations than the array-of-structs cache it replaced did.
func TestNewHierarchyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for cores, budget := range map[int]float64{2: 36, 4: 60, 8: 108} {
		cfg := DefaultHierarchyConfig(cores)
		if n := testing.AllocsPerRun(10, func() { NewHierarchy(cfg) }); n > budget {
			t.Errorf("NewHierarchy(%d cores) allocates %v times, budget %v", cores, n, budget)
		}
	}
}
