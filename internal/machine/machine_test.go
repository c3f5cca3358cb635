package machine

import (
	"fmt"
	"math"
	"testing"

	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/workload"
)

func smallConfig(cores int) Config {
	return Config{
		Hierarchy: mem.HierarchyConfig{
			Cores:  cores,
			L1Sets: 4, L1Ways: 2,
			L2Sets: 8, L2Ways: 2,
			L3Sets: 16, L3Ways: 4,
			L1Latency: 1, L2Latency: 10, L3Latency: 30,
			Memory: mem.MemoryConfig{LatencyCycles: 100},
		},
		PeriodCycles:    2000,
		SlicesPerPeriod: 4,
	}
}

func streamProc(name string, instrs uint64, ws uint64) *Process {
	return NewProcess(name,
		ExecProfile{MemFraction: 0.3, BaseCPI: 1, Instructions: instrs},
		workload.NewStream(0, ws, 1, 0), 1)
}

func TestNewValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no cores", func() { New(Config{}) })
	mustPanic("bad slices", func() { New(Config{Cores: 1, PeriodCycles: 2, SlicesPerPeriod: 4}) })
	mustPanic("bad profile memfrac", func() {
		NewProcess("x", ExecProfile{MemFraction: 0, BaseCPI: 1}, workload.NewStream(0, 1, 1, 0), 0)
	})
	for _, cpi := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1 << 53, 1e300} {
		mustPanic(fmt.Sprintf("bad profile cpi %v", cpi), func() {
			NewProcess("x", ExecProfile{MemFraction: 0.5, BaseCPI: cpi}, workload.NewStream(0, 1, 1, 0), 0)
		})
	}
	mustPanic("bad profile memfrac NaN", func() {
		NewProcess("x", ExecProfile{MemFraction: math.NaN(), BaseCPI: 1}, workload.NewStream(0, 1, 1, 0), 0)
	})
	NewProcess("x", ExecProfile{MemFraction: 0.5, BaseCPI: 1<<53 - 1}, workload.NewStream(0, 1, 1, 0), 0)
	mustPanic("nil generator", func() {
		NewProcess("x", ExecProfile{MemFraction: 0.5, BaseCPI: 1}, nil, 0)
	})
	mustPanic("bad freq divisor", func() { New(Config{Cores: 1}).Core(0).SetFreqDivisor(0) })
	mustPanic("bad utilization arg", func() { New(Config{Cores: 1}).Utilization(2) })
}

func TestDefaultsApplied(t *testing.T) {
	m := New(Config{Cores: 2})
	if m.period != 60000 {
		t.Errorf("default period = %d, want 60000", m.period)
	}
	if m.Cores() != 2 {
		t.Errorf("cores = %d, want 2", m.Cores())
	}
	if d := mem.DefaultHierarchyConfig(2); m.Hierarchy().L3().LineCount() != d.L3Sets*d.L3Ways {
		t.Error("default hierarchy not applied")
	}
}

func TestRunPeriodAdvancesClock(t *testing.T) {
	m := New(smallConfig(1))
	m.RunPeriod()
	m.RunPeriod()
	if m.now != 4000 || m.Periods() != 2 {
		t.Errorf("now=%d periods=%d, want 4000,2", m.now, m.Periods())
	}
}

func TestIdleCoreAccumulatesIdle(t *testing.T) {
	m := New(smallConfig(2))
	m.Bind(0, streamProc("a", 0, 8))
	m.RunPeriod()
	c1 := m.Core(1)
	if c1.BusyCycles() != 0 || c1.IdleCycles() != 2000 {
		t.Errorf("unbound core busy=%d idle=%d, want 0,2000", c1.BusyCycles(), c1.IdleCycles())
	}
	c0 := m.Core(0)
	if c0.BusyCycles() == 0 {
		t.Error("bound core never ran")
	}
	if c0.BusyCycles()+c0.IdleCycles() != 2000 {
		t.Errorf("core 0 busy+idle = %d, want 2000", c0.BusyCycles()+c0.IdleCycles())
	}
}

func TestPausedCoreDoesNotExecute(t *testing.T) {
	m := New(smallConfig(1))
	p := streamProc("a", 0, 8)
	m.Bind(0, p)
	m.Core(0).SetPaused(true)
	if !m.Core(0).paused {
		t.Fatal("SetPaused did not stick")
	}
	m.RunPeriod()
	if p.Retired() != 0 {
		t.Errorf("paused process retired %d instructions", p.Retired())
	}
	if m.Core(0).IdleCycles() != 2000 {
		t.Errorf("paused core idle = %d, want 2000", m.Core(0).IdleCycles())
	}
	m.Core(0).SetPaused(false)
	m.RunPeriod()
	if p.Retired() == 0 {
		t.Error("unpaused process still not running")
	}
}

func TestProcessCompletion(t *testing.T) {
	m := New(smallConfig(1))
	p := streamProc("a", 100, 8)
	m.Bind(0, p)
	for i := 0; i < 50 && !p.Done(); i++ {
		m.RunPeriod()
	}
	if !p.Done() {
		t.Fatal("process never completed")
	}
	if p.Retired() != 100 {
		t.Errorf("retired = %d, want exactly 100", p.Retired())
	}
	// After completion the core idles.
	busyBefore := m.Core(0).BusyCycles()
	m.RunPeriod()
	if m.Core(0).BusyCycles() != busyBefore {
		t.Error("core kept executing after process completion")
	}
}

func TestProcessRelaunch(t *testing.T) {
	m := New(smallConfig(1))
	p := streamProc("a", 50, 8)
	m.Bind(0, p)
	for !p.Done() {
		m.RunPeriod()
	}
	retiredCum := m.ReadCounter(0, pmu.EventInstrRetired)
	p.Relaunch()
	if p.Done() || p.Retired() != 0 {
		t.Error("Relaunch did not reset the process")
	}
	for !p.Done() {
		m.RunPeriod()
	}
	if p.Retired() != 50 {
		t.Errorf("retired after relaunch = %d, want exactly 50", p.Retired())
	}
	// The PMU instruction counter is cumulative across relaunches.
	if got := m.ReadCounter(0, pmu.EventInstrRetired); got != retiredCum*2 {
		t.Errorf("cumulative retired = %d, want %d", got, retiredCum*2)
	}
}

// TestRelaunchReplaysFreshProcess pins that Relaunch, which reseeds the
// process's RNG in place, leaves the process in the state a freshly built
// twin starts in: on two fresh machines the relaunched process and the twin
// issue the same references (equal hierarchy counters) and retire the same
// instructions with the same accumulators. Relaunch allocates nothing.
func TestRelaunchReplaysFreshProcess(t *testing.T) {
	mk := func() *Process {
		gen := workload.NewHotCold(workload.NewUniform(0, 24, 0.3), workload.NewUniform(1<<10, 320, 0.1), 0.8)
		return NewProcess("u", ExecProfile{MemFraction: 0.3, BaseCPI: 1.5, Instructions: 600}, gen, 7)
	}
	p := mk()
	used := New(smallConfig(1))
	used.Bind(0, p)
	used.RunPeriods(2) // part way through its run: generator, RNG and accumulators all moved
	if p.Done() || p.Retired() == 0 {
		t.Fatalf("setup: done=%v retired=%d, want a process part way through", p.Done(), p.Retired())
	}
	p.Relaunch()
	relaunched, fresh := New(smallConfig(1)), New(smallConfig(1))
	twin := mk()
	relaunched.Bind(0, p)
	fresh.Bind(0, twin)
	for i := 0; i < 40; i++ {
		relaunched.RunPeriod()
		fresh.RunPeriod()
		a, b := relaunched.Hierarchy(), fresh.Hierarchy()
		if a.L1(0).Stats() != b.L1(0).Stats() || a.L2(0).Stats() != b.L2(0).Stats() ||
			a.L3().Stats() != b.L3().Stats() || a.LLCMisses(0) != b.LLCMisses(0) {
			t.Fatalf("period %d: relaunched process's hierarchy counters diverged from a fresh twin's", i)
		}
		if p.retired != twin.retired || p.done != twin.done || p.memAcc != twin.memAcc || p.cpiAcc != twin.cpiAcc {
			t.Fatalf("period %d: relaunched retired/done/memAcc/cpiAcc = %d %v %v %v, fresh twin %d %v %v %v",
				i, p.retired, p.done, p.memAcc, p.cpiAcc, twin.retired, twin.done, twin.memAcc, twin.cpiAcc)
		}
	}
	if !p.Done() {
		t.Fatal("setup: the run should complete within the compared periods")
	}
	if n := testing.AllocsPerRun(100, p.Relaunch); n != 0 {
		t.Fatalf("Relaunch allocates %v/op, want 0", n)
	}
}

// TestCompletionOverrunCarriesToNextProcess pins, on the one-pass and the
// sliced path, that the overrun of a process's completing instruction stays
// with the core and is paid as stall by the core's next process, whether a
// relaunch or a newly bound one. Every golden depends on this; a change
// that clears the debt at completion is a re-baseline, not a fix to slip in.
//
// Each instruction costs exactly 150 cycles in 100-cycle slices. A run of
// three issues at debt, debt+150, debt+300 and ends 450 cycles after debt;
// busy time stops at the end of the slice the third one issued in.
func TestCompletionOverrunCarriesToNextProcess(t *testing.T) {
	compute := func(instrs uint64) *Process {
		return NewProcess("c", ExecProfile{MemFraction: 1e-9, BaseCPI: 150, Instructions: instrs},
			workload.NewStream(0, 8, 1, 0), 1)
	}
	for _, contended := range []bool{false, true} {
		cfg := smallConfig(2)
		cfg.SlicesPerPeriod = 20
		m := New(cfg)
		if contended {
			m.Bind(1, compute(0)) // never completes, never touches memory
		}
		c := m.Core(0)
		p := compute(3)
		m.Bind(0, p)
		check := func(step string, busy, debt uint64) {
			t.Helper()
			if !p.Done() || p.Retired() != 3 || c.busy != busy || c.debt != debt ||
				c.busy+c.idle != m.now {
				t.Fatalf("contended=%v %s: done=%v retired=%d busy=%d idle=%d debt=%d, want done, 3, busy %d, debt %d",
					contended, step, p.Done(), p.Retired(), c.busy, c.idle, c.debt, busy, debt)
			}
		}
		m.RunPeriod() // issues at 0, 150, 300: ends 450, slice ends 400
		check("first run", 400, 50)
		p.Relaunch()
		m.RunPeriod() // issues at 50, 200, 350: ends 500, slice ends 400
		check("relaunch", 800, 100)
		p = compute(3)
		m.Bind(0, p)
		m.RunPeriod() // issues at 100, 250, 400: ends 550, slice ends 500
		check("next process", 1300, 50)
	}
}

func TestPMUSourceCounters(t *testing.T) {
	m := New(smallConfig(1))
	p := streamProc("a", 0, 200) // WS larger than L1+L2: LLC traffic guaranteed
	m.Bind(0, p)
	m.RunPeriod()
	if got := m.ReadCounter(0, pmu.EventInstrRetired); got != p.Retired() {
		t.Errorf("instr counter = %d, want %d", got, p.Retired())
	}
	if m.ReadCounter(0, pmu.EventLLCMisses) == 0 {
		t.Error("no LLC misses counted for a large-WS stream")
	}
	if m.ReadCounter(0, pmu.EventCycles) == 0 {
		t.Error("no busy cycles counted")
	}
	if m.ReadCounter(0, pmu.EventL2Misses) < m.ReadCounter(0, pmu.EventLLCMisses) {
		t.Error("L2 misses < LLC misses (impossible)")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("unknown event did not panic")
			}
		}()
		m.ReadCounter(0, pmu.Event(99))
	}()
}

func TestUtilizationEquation(t *testing.T) {
	m := New(smallConfig(2))
	m.Bind(0, streamProc("a", 0, 8))
	// Core 1 idle: U over 2 cores ~ 0.5 * core0 utilization.
	for i := 0; i < 5; i++ {
		m.RunPeriod()
	}
	u0 := m.Core(0).Utilization()
	if u0 <= 0.5 {
		t.Errorf("active core utilization = %v, want high", u0)
	}
	u := m.Utilization(2)
	want := u0 / 2
	if diff := u - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Utilization(2) = %v, want %v", u, want)
	}
	if got := m.Core(1).Utilization(); got != 0 {
		t.Errorf("idle core utilization = %v, want 0", got)
	}
}

func TestFreqDivisorHalvesThroughput(t *testing.T) {
	run := func(div int) uint64 {
		m := New(smallConfig(1))
		p := streamProc("a", 0, 8)
		m.Bind(0, p)
		m.Core(0).SetFreqDivisor(div)
		for i := 0; i < 10; i++ {
			m.RunPeriod()
		}
		return p.Retired()
	}
	full := run(1)
	half := run(2)
	ratio := float64(half) / float64(full)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("divisor-2 throughput ratio = %v, want ~0.5 (full=%d half=%d)", ratio, full, half)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		m := New(smallConfig(2))
		m.Bind(0, NewProcess("a", ExecProfile{MemFraction: 0.4, BaseCPI: 1}, workload.NewUniform(0, 300, 0.1), 7))
		m.Bind(1, NewProcess("b", ExecProfile{MemFraction: 0.4, BaseCPI: 1}, workload.NewUniform(5000, 300, 0.1), 8))
		for i := 0; i < 20; i++ {
			m.RunPeriod()
		}
		return m.ReadCounter(0, pmu.EventLLCMisses), m.ReadCounter(0, pmu.EventInstrRetired)
	}
	m1, i1 := run()
	m2, i2 := run()
	if m1 != m2 || i1 != i2 {
		t.Errorf("simulation not deterministic: (%d,%d) vs (%d,%d)", m1, i1, m2, i2)
	}
}

func TestColocationSlowsRetirement(t *testing.T) {
	// The core contention result: a large-WS app retires fewer instructions
	// per period when a streaming adversary shares the L3.
	run := func(withAdversary bool) uint64 {
		m := New(smallConfig(2))
		l3 := uint64(m.Hierarchy().L3().LineCount())
		p := NewProcess("victim", ExecProfile{MemFraction: 0.4, BaseCPI: 1},
			workload.NewUniform(0, l3*3/4, 0), 3)
		m.Bind(0, p)
		if withAdversary {
			m.Bind(1, NewProcess("lbm", ExecProfile{MemFraction: 0.5, BaseCPI: 1},
				workload.NewStream(1<<20, l3*2, 1, 0.3), 4))
		}
		for i := 0; i < 30; i++ {
			m.RunPeriod()
		}
		return p.Retired()
	}
	alone := run(false)
	contended := run(true)
	if contended >= alone {
		t.Errorf("co-location did not slow the victim: alone=%d contended=%d", alone, contended)
	}
	slowdown := float64(alone) / float64(contended)
	if slowdown < 1.05 {
		t.Errorf("slowdown = %v, want measurable contention (>1.05)", slowdown)
	}
}

func TestCycleAccountingInvariant(t *testing.T) {
	// Every core's busy + idle cycles must equal periods x period length,
	// whatever mix of running, paused, DVFS-throttled and completed
	// processes it hosts.
	m := New(smallConfig(3))
	m.Bind(0, streamProc("a", 300, 8))  // completes mid-run
	m.Bind(1, streamProc("b", 0, 2048)) // heavy misser
	m.Core(1).SetFreqDivisor(3)         // throttled
	// Core 2 unbound: pure idle.
	for i := 0; i < 25; i++ {
		if i == 10 {
			m.Core(1).SetPaused(true)
		}
		if i == 15 {
			m.Core(1).SetPaused(false)
		}
		m.RunPeriod()
	}
	want := m.Periods() * m.period
	for c := 0; c < m.Cores(); c++ {
		got := m.Core(c).BusyCycles() + m.Core(c).IdleCycles()
		if got != want {
			t.Errorf("core %d: busy+idle = %d, want %d", c, got, want)
		}
	}
}

func TestSliceGranularityDoesNotChangeCosts(t *testing.T) {
	// Instruction costs must be exact regardless of slice size: an
	// instruction whose memory latency overruns its slice carries the
	// remainder as debt into the next slice. Without that, fine slicing
	// silently truncates miss penalties.
	run := func(slices int) uint64 {
		cfg := smallConfig(1)
		cfg.SlicesPerPeriod = slices
		m := New(cfg)
		// Large-WS stream: every access misses to memory (141-cycle total),
		// far above a fine slice's budget.
		p := NewProcess("a", ExecProfile{MemFraction: 0.5, BaseCPI: 1},
			workload.NewStream(0, 4096, 1, 0), 1)
		m.Bind(0, p)
		for i := 0; i < 50; i++ {
			m.RunPeriod()
		}
		return p.Retired()
	}
	coarse := run(2) // 1000-cycle slices
	fine := run(100) // 20-cycle slices << miss latency
	ratio := float64(fine) / float64(coarse)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("throughput varies with slice size: coarse=%d fine=%d (ratio %.3f)", coarse, fine, ratio)
	}
}

func TestExpectedCyclesPerMissChargedExactly(t *testing.T) {
	// One core, all-miss stream, no bandwidth model: cycles per instruction
	// must equal memFrac*fullMiss + (1-memFrac)*baseCPI.
	cfg := smallConfig(1)
	cfg.SlicesPerPeriod = 40 // 50-cycle slices, below the 141-cycle miss
	m := New(cfg)
	p := NewProcess("a", ExecProfile{MemFraction: 0.5, BaseCPI: 1},
		workload.NewStream(0, 1<<20, 1, 0), 1) // never re-touches a line
	m.Bind(0, p)
	for i := 0; i < 100; i++ {
		m.RunPeriod()
	}
	// Full miss: 1 (L1) + 10 (L2) + 30 (L3) + 100 (mem) = 141 cycles.
	wantCPI := 0.5*141 + 0.5*1
	gotCPI := float64(m.Core(0).BusyCycles()) / float64(p.Retired())
	if gotCPI < wantCPI*0.98 || gotCPI > wantCPI*1.02 {
		t.Errorf("CPI = %.2f, want ~%.2f", gotCPI, wantCPI)
	}
}

func TestBindUnbind(t *testing.T) {
	m := New(smallConfig(1))
	p := streamProc("a", 0, 8)
	m.Bind(0, p)
	if m.Core(0).proc != p {
		t.Error("Bind did not attach process")
	}
	m.Unbind(0)
	if m.Core(0).proc != nil {
		t.Error("Unbind did not detach process")
	}
	m.RunPeriod()
	if p.Retired() != 0 {
		t.Error("unbound process executed")
	}
}

func basedStreamProc(name string, base, instrs, ws uint64) *Process {
	return NewProcess(name,
		ExecProfile{MemFraction: 0.3, BaseCPI: 1, Instructions: instrs},
		workload.NewStream(base, ws, 1, 0), 1)
}

func TestDomainTopology(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Domains = 2 // 2 cores per domain, 4 total
	m := New(cfg)
	if m.Cores() != 4 || m.Domains() != 2 {
		t.Fatalf("topology = %d cores / %d domains, want 4/2", m.Cores(), m.Domains())
	}
	for core, want := range []int{0, 0, 1, 1} {
		if got := m.DomainOf(core); got != want {
			t.Errorf("DomainOf(%d) = %d, want %d", core, got, want)
		}
	}
	for core, want := range []int{0, 1, 0, 1} {
		if got := m.LocalCore(core); got != want {
			t.Errorf("LocalCore(%d) = %d, want %d", core, got, want)
		}
	}
	if lo, hi := m.DomainCores(0); lo != 0 || hi != 2 {
		t.Errorf("DomainCores(0) = [%d,%d), want [0,2)", lo, hi)
	}
	if lo, hi := m.DomainCores(1); lo != 2 || hi != 4 {
		t.Errorf("DomainCores(1) = [%d,%d), want [2,4)", lo, hi)
	}
	if m.DomainHierarchy(0) == m.DomainHierarchy(1) {
		t.Error("domains share a hierarchy")
	}
	if m.Hierarchy() != m.DomainHierarchy(0) {
		t.Error("Hierarchy() is not domain 0's hierarchy")
	}
}

func TestDomainValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("indivisible cores", func() { New(Config{Cores: 7, Domains: 2}) })
	mustPanic("negative domains", func() { New(Config{Cores: 4, Domains: -1}) })
	mustPanic("hierarchy/domain mismatch", func() {
		cfg := smallConfig(4) // hierarchy spans 4 cores
		cfg.Cores = 8
		cfg.Domains = 4 // but each domain owns 2
		New(cfg)
	})
}

// TestDomainIsolation pins the property the sched placement engine exploits:
// a cache-thrashing aggressor degrades an L3-resident victim sharing its LLC
// domain, and does not touch one on the other domain.
func TestDomainIsolation(t *testing.T) {
	run := func(aggrCore int) (retired, misses uint64) {
		cfg := smallConfig(2)
		cfg.Domains = 2
		m := New(cfg)
		victim := basedStreamProc("victim", 0, 0, 48)   // fits the 64-line L3
		aggr := basedStreamProc("aggr", 1<<20, 0, 4096) // thrashes any L3
		m.Bind(0, victim)
		m.Bind(aggrCore, aggr)
		for i := 0; i < 50; i++ {
			m.RunPeriod()
		}
		return victim.Retired(), m.ReadCounter(0, pmu.EventLLCMisses)
	}
	coloRetired, coloMisses := run(1)   // same domain as the victim
	splitRetired, splitMisses := run(2) // other domain
	if splitRetired <= coloRetired {
		t.Errorf("split-domain victim retired %d <= co-located %d (no isolation)", splitRetired, coloRetired)
	}
	if splitMisses >= coloMisses {
		t.Errorf("split-domain victim missed %d >= co-located %d (aggressor leaked across domains)", splitMisses, coloMisses)
	}
}

// TestFlushCoreDomainScoped pins that FlushCore empties the flushed core's
// cache state and only its own domain's.
func TestFlushCoreDomainScoped(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Domains = 2
	m := New(cfg)
	a := basedStreamProc("a", 0, 0, 48)
	b := basedStreamProc("b", 1<<20, 0, 48)
	m.Bind(0, a)
	m.Bind(2, b)
	for i := 0; i < 20; i++ {
		m.RunPeriod() // warm both working sets
	}
	warmBase := m.ReadCounter(0, pmu.EventLLCMisses)
	m.RunPeriod()
	warmDelta := m.ReadCounter(0, pmu.EventLLCMisses) - warmBase

	// Flushing the *other* domain's core leaves core 0 warm.
	m.FlushCore(2)
	base := m.ReadCounter(0, pmu.EventLLCMisses)
	m.RunPeriod()
	if delta := m.ReadCounter(0, pmu.EventLLCMisses) - base; delta > warmDelta+4 {
		t.Errorf("flushing core 2 cooled core 0: %d misses/period, warm baseline %d", delta, warmDelta)
	}

	// Flushing core 0 itself makes its next period cold.
	m.FlushCore(0)
	base = m.ReadCounter(0, pmu.EventLLCMisses)
	m.RunPeriod()
	if delta := m.ReadCounter(0, pmu.EventLLCMisses) - base; delta <= warmDelta {
		t.Errorf("flushing core 0 had no effect: %d misses/period, warm baseline %d", delta, warmDelta)
	}
}
