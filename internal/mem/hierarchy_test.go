package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

func newTestHierarchy(cores int) *Hierarchy {
	cfg := HierarchyConfig{
		Cores:  cores,
		L1Sets: 4, L1Ways: 2,
		L2Sets: 8, L2Ways: 2,
		L3Sets: 16, L3Ways: 4,
		L1Latency: 1, L2Latency: 10, L3Latency: 30,
		Memory: MemoryConfig{LatencyCycles: 100},
	}
	return NewHierarchy(cfg)
}

func TestNewHierarchyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHierarchy with 0 cores did not panic")
		}
	}()
	NewHierarchy(HierarchyConfig{Cores: 0})
}

func TestHierarchyAccessLevelsAndLatencies(t *testing.T) {
	h := newTestHierarchy(2)
	// Cold access: miss everywhere -> memory.
	r := h.Access(0, 42, false, 0)
	if r.Level != LevelMemory {
		t.Fatalf("cold access level = %v, want MEM", r.Level)
	}
	if want := uint64(1 + 10 + 30 + 100); r.Latency != want {
		t.Errorf("cold latency = %d, want %d", r.Latency, want)
	}
	// Second access: L1 hit.
	r = h.Access(0, 42, false, 0)
	if r.Level != LevelL1 || r.Latency != 1 {
		t.Errorf("warm access = %+v, want L1/1", r)
	}
	if h.LLCMisses(0) != 1 {
		t.Errorf("LLC misses = %d, want 1", h.LLCMisses(0))
	}
}

func TestHierarchyL3HitFromOtherCoreFill(t *testing.T) {
	h := newTestHierarchy(2)
	h.Access(0, 7, false, 0)
	// Core 1 misses privately but hits shared L3 (filled by core 0).
	r := h.Access(1, 7, false, 0)
	if r.Level != LevelL3 {
		t.Errorf("core 1 access level = %v, want L3", r.Level)
	}
	if h.LLCMisses(1) != 0 {
		t.Errorf("core 1 LLC misses = %d, want 0", h.LLCMisses(1))
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := newTestHierarchy(1)
	h.Access(0, 1, false, 0)
	// Evict addr 1 from L1 (4 sets * 2 ways): fill set of addr 1 with
	// conflicting addresses 5 and 9 (addr % 4 == 1).
	h.Access(0, 5, false, 0)
	h.Access(0, 9, false, 0)
	if holds(h.L1(0), 1) {
		t.Fatal("L1 did not evict as expected; geometry changed")
	}
	r := h.Access(0, 1, false, 0)
	if r.Level != LevelL2 {
		t.Errorf("level = %v, want L2", r.Level)
	}
}

func TestHierarchyInclusionBackInvalidation(t *testing.T) {
	h := newTestHierarchy(2)
	// Fill one L3 set (16 sets, 4 ways): addresses congruent mod 16.
	base := uint64(3)
	for i := uint64(0); i < 4; i++ {
		h.Access(0, base+16*i, false, 0)
	}
	if !holds(h.L1(0), base+48) && !holds(h.L2(0), base+48) {
		t.Log("note: most recent line may only be in private caches")
	}
	// Fifth conflicting line evicts one of the first four from L3.
	h.Access(1, base+64, false, 0)
	// Inclusion: no private cache may hold a line absent from L3.
	checkInclusion(t, h)
}

func checkInclusion(t *testing.T, h *Hierarchy) {
	t.Helper()
	for core := 0; core < h.Cores(); core++ {
		for _, c := range []*Cache{h.L1(core), h.L2(core)} {
			for _, addr := range residents(c) {
				if !holds(h.L3(), addr) {
					t.Fatalf("inclusion violated: %s holds %d which is not in L3", levelName(h, c), addr)
				}
			}
		}
	}
}

// residents lists the addresses c holds, in slot order.
// levelName names one of h's caches in failure messages.
func levelName(h *Hierarchy, c *Cache) string {
	for core := 0; core < h.Cores(); core++ {
		switch c {
		case h.l1[core]:
			return fmt.Sprintf("L1.%d", core)
		case h.l2[core]:
			return fmt.Sprintf("L2.%d", core)
		}
	}
	return "L3"
}

func residents(c *Cache) []uint64 {
	var addrs []uint64
	for slot, tag := range c.tags {
		if has(WayMask(c.valid[slot/c.ways]), slot%c.ways) {
			addrs = append(addrs, tag)
		}
	}
	return addrs
}

// Property-style: inclusion holds after a long random multicore access mix.
func TestHierarchyInclusionInvariantRandom(t *testing.T) {
	h := newTestHierarchy(4)
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 20000; i++ {
		core := rng.Intn(4)
		addr := uint64(rng.Intn(512))
		h.Access(core, addr, rng.Intn(3) == 0, uint64(i))
	}
	checkInclusion(t, h)
}

func TestHierarchyContentionRaisesMisses(t *testing.T) {
	// A working set that fits L3 alone but not when two cores stream over
	// disjoint halves of 1.5x L3 capacity: misses should rise sharply.
	run := func(cores int) uint64 {
		h := newTestHierarchy(2)
		l3Lines := uint64(h.L3().LineCount()) // 64 lines
		ws := l3Lines * 3 / 4                 // each core's set: 48 lines
		var now uint64
		for pass := 0; pass < 50; pass++ {
			for i := uint64(0); i < ws; i++ {
				h.Access(0, i, false, now)
				now++
				if cores == 2 {
					h.Access(1, 1000+i, false, now)
					now++
				}
			}
		}
		return h.LLCMisses(0)
	}
	alone := run(1)
	contended := run(2)
	if contended <= alone*2 {
		t.Errorf("contention did not raise misses enough: alone=%d contended=%d", alone, contended)
	}
}

func TestL2HintsProtectPrivateCacheResidents(t *testing.T) {
	// The inclusion-victim pathology: a line hot in L2 never touches the
	// L3 via demand accesses, ages to LRU there, and gets evicted by a
	// streaming co-runner — unless L2 hits send temporal hints. Compare a
	// small hot set's survival with hints on and off.
	run := func(disableHints bool) uint64 {
		cfg := DefaultHierarchyConfig(2)
		cfg.DisableL2Hints = disableHints
		h := NewHierarchy(cfg)
		var now uint64
		// Core 0: tight loop over 512 lines (L2-resident after warmup).
		// Core 1: stream over 4x the L3.
		streamAddr := uint64(1 << 20)
		for i := 0; i < 400000; i++ {
			h.Access(0, uint64(i%512), false, now)
			now++
			if i%3 == 0 {
				h.Access(1, streamAddr, false, now)
				streamAddr++
				now++
			}
		}
		return h.LLCMisses(0)
	}
	withHints := run(false)
	withoutHints := run(true)
	if withoutHints < withHints*3 {
		t.Errorf("hints made no difference: with=%d without=%d", withHints, withoutHints)
	}
	// With hints the resident set survives almost untouched (just the
	// initial fill plus stragglers).
	if withHints > 2000 {
		t.Errorf("hinted resident set still suffered %d misses", withHints)
	}
}

func TestCacheRefresh(t *testing.T) {
	c := NewCache(Config{Sets: 1, Ways: 2})
	fill(c, 0, 0, false)
	fill(c, 1, 0, false)
	// Refresh line 0 so line 1 becomes the LRU victim.
	if !c.Refresh(0) {
		t.Fatal("Refresh did not find a resident line")
	}
	if c.Refresh(99) {
		t.Error("Refresh found a non-resident line")
	}
	ev := fill(c, 2, 0, false)
	if ev.Addr != 1 {
		t.Errorf("evicted %d, want 1 (line 0 was refreshed)", ev.Addr)
	}
	// Refresh must not disturb stats.
	if s := c.Stats(); s.Accesses != 0 {
		t.Errorf("Refresh bumped access stats: %+v", s)
	}
}

func TestHierarchyFlushCore(t *testing.T) {
	h := newTestHierarchy(2)
	h.Access(0, 11, false, 0)
	h.Access(1, 22, false, 0)
	h.FlushCore(0)
	if holds(h.L1(0), 11) || holds(h.L2(0), 11) || holds(h.L3(), 11) {
		t.Error("core 0 lines survived FlushCore")
	}
	if !holds(h.L3(), 22) {
		t.Error("core 1's L3 line was lost by FlushCore(0)")
	}
}

func TestMainMemoryFixedLatency(t *testing.T) {
	m := NewMainMemory(MemoryConfig{LatencyCycles: 150})
	for i := 0; i < 5; i++ {
		if got := m.Access(uint64(i)); got != 150 {
			t.Errorf("Access = %d, want 150", got)
		}
	}
	if m.QueuedCycles() != 0 {
		t.Errorf("QueuedCycles = %d, want 0 without bandwidth model", m.QueuedCycles())
	}
}

func TestMainMemoryBandwidthQueueing(t *testing.T) {
	m := NewMainMemory(MemoryConfig{LatencyCycles: 100, ServiceCycles: 10})
	// Two back-to-back accesses at the same cycle: the second queues 10.
	if got := m.Access(0); got != 100 {
		t.Errorf("first access latency = %d, want 100", got)
	}
	if got := m.Access(0); got != 110 {
		t.Errorf("second access latency = %d, want 110", got)
	}
	if m.QueuedCycles() != 10 {
		t.Errorf("QueuedCycles = %d, want 10", m.QueuedCycles())
	}
	// An access after the channel drained sees no queueing.
	if got := m.Access(1000); got != 100 {
		t.Errorf("late access latency = %d, want 100", got)
	}
}

func TestMainMemoryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMainMemory with zero latency did not panic")
		}
	}()
	NewMainMemory(MemoryConfig{})
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelMemory: "MEM", Level(9): "Level(9)"}
	for l, want := range cases {
		if got := l.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), got, want)
		}
	}
}

func TestDefaultHierarchyConfigGeometry(t *testing.T) {
	cfg := DefaultHierarchyConfig(4)
	if cfg.Cores != 4 {
		t.Errorf("Cores = %d", cfg.Cores)
	}
	// 64B lines: verify documented sizes.
	if kb := cfg.L1Sets * cfg.L1Ways * 64 / 1024; kb != 8 {
		t.Errorf("L1 size = %dKB, want 8", kb)
	}
	if kb := cfg.L2Sets * cfg.L2Ways * 64 / 1024; kb != 64 {
		t.Errorf("L2 size = %dKB, want 64", kb)
	}
	if kb := cfg.L3Sets * cfg.L3Ways * 64 / 1024; kb != 512 {
		t.Errorf("L3 size = %dKB, want 512", kb)
	}
	h := NewHierarchy(cfg)
	if h.Cores() != 4 || h.cfg.L3Sets != 512 {
		t.Error("hierarchy did not adopt config")
	}
}
