package caer

import (
	"testing"
	"testing/quick"

	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/spec"
	"caer/internal/telemetry"
	"caer/internal/workload"
)

func TestSamplingModeStrings(t *testing.T) {
	want := map[SamplingMode]string{
		SamplingPolling:   "polling",
		SamplingAdaptive:  "adaptive",
		SamplingInterrupt: "interrupt",
	}
	for _, m := range []SamplingMode{SamplingPolling, SamplingAdaptive, SamplingInterrupt} {
		if m.String() != want[m] {
			t.Errorf("mode %d String = %q, want %q", int(m), m.String(), want[m])
		}
	}
	if s := SamplingMode(99).String(); s != "SamplingMode(99)" {
		t.Errorf("unknown mode String = %q", s)
	}
}

func TestIntervalControllerWidensWithHysteresis(t *testing.T) {
	c := NewIntervalController(16, 2, 3)
	// Two quiet probes: below the hysteresis bound, no widening.
	for i := 1; i <= 2; i++ {
		if got := c.Observe(true); got != 1 {
			t.Fatalf("interval %d after %d quiet probes (hysteresis 3), want 1", got, i)
		}
	}
	// Third quiet probe: widen to 2.
	if got := c.Observe(true); got != 2 {
		t.Fatalf("interval %d after 3 quiet probes, want 2", got)
	}
	// Each further full streak doubles, capping at max.
	var got int
	for i := 0; i < 20; i++ {
		got = c.Observe(true)
	}
	if got != 16 {
		t.Fatalf("interval %d after a long quiet run, want cap 16", got)
	}
	// Onset snaps straight back to every-period.
	if got := c.Observe(false); got != 1 {
		t.Fatalf("interval %d after onset, want 1", got)
	}
}

func TestIntervalControllerCapBelowGrowth(t *testing.T) {
	// max 3 with growth 2: 1 -> 2 -> 3 (clamped), never past max.
	c := NewIntervalController(3, 2, 1)
	c.Observe(true)
	if got := c.Observe(true); got != 3 {
		t.Fatalf("interval %d, want clamped 3", got)
	}
	if got := c.Observe(true); got != 3 {
		t.Fatalf("interval %d after further quiet, want 3", got)
	}
}

// TestIntervalControllerLatencyMonotoneInMax is the satellite property
// test: the adaptive controller's worst-case detection latency after any
// observation sequence is its current interval (an onset in a skipped
// stretch is seen at the next probe). Driving two controllers that differ
// only in their max-interval bound through the same sequence, the
// smaller-bound controller's interval — hence its detection latency — must
// never exceed the larger's, and both must respect their bounds.
func TestIntervalControllerLatencyMonotoneInMax(t *testing.T) {
	prop := func(maxSeed, extraSeed, growthSeed, quietSeed uint8, script []bool) bool {
		maxA := int(maxSeed)%64 + 1
		maxB := maxA + int(extraSeed)%64
		growth := int(growthSeed)%4 + 2
		hysteresis := int(quietSeed)%5 + 1
		a := NewIntervalController(maxA, growth, hysteresis)
		b := NewIntervalController(maxB, growth, hysteresis)
		for _, quiet := range script {
			ia := a.Observe(quiet)
			ib := b.Observe(quiet)
			if ia > ib {
				return false // latency not monotone in the max bound
			}
			if ia > maxA || ib > maxB || ia < 1 || ib < 1 {
				return false // bound violated
			}
			if !quiet && (ia != 1 || ib != 1) {
				return false // onset must snap back immediately
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// pressureSource interposes on the machine's counters, adding synthetic
// cumulative LLC misses on one core — a deterministic neighbour-pressure
// script the sampling tests turn on and off.
type pressureSource struct {
	m     *machine.Machine
	core  int
	extra uint64
}

func (p *pressureSource) ReadCounter(core int, ev pmu.Event) uint64 {
	v := p.m.ReadCounter(core, ev)
	if core == p.core && ev == pmu.EventLLCMisses {
		v += p.extra
	}
	return v
}

// idleProcess is a latency app whose working set fits in L1: after the
// cold-start transient its LLC-miss rate is ~0, the quiet floor the
// adaptive controller widens over.
func idleProcess(seed int64) *machine.Process {
	return machine.NewProcess("idle",
		machine.ExecProfile{MemFraction: 0.05, BaseCPI: 1},
		workload.NewStream(0, 4096, 64, 0), seed)
}

// samplingScenario builds a 2-core deployment: an idle latency app and an
// lbm batch adversary under the rule heuristic, with a scriptable pressure
// source on the latency core.
func samplingScenario(t *testing.T, cfg Config) (*Runtime, *pressureSource) {
	t.Helper()
	m := machine.New(machine.Config{Cores: 2})
	ps := &pressureSource{m: m, core: 0}
	rt := NewRuntime(m, HeuristicRule, cfg, WithSource(ps))
	rt.AddLatency("idle", 0, idleProcess(21))
	rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, 22))
	return rt, ps
}

func samplingTestConfig(mode SamplingMode) Config {
	cfg := DefaultConfig()
	cfg.Sampling = mode
	cfg.MaxProbeInterval = 8
	cfg.UsageThresh = 50
	return cfg
}

func TestAdaptiveSamplingWidensWithoutTrippingWatchdog(t *testing.T) {
	rt, ps := samplingScenario(t, samplingTestConfig(SamplingAdaptive))
	for i := 0; i < 200; i++ {
		rt.Step()
		// The monitor is alive and honouring its declared cadence, so no
		// consumer — engine watchdog, shm reader, telemetry — may ever see
		// it as stale, probe period or skipped period alike.
		if stale := rt.Monitors()[0].Slot().StalePeriods(); stale != 0 {
			t.Fatalf("period %d: live monitor reads stale (%d periods) during a declared skip", i, stale)
		}
	}
	st := rt.SamplingStats()
	if st.Mode != SamplingAdaptive {
		t.Fatalf("stats mode %v, want adaptive", st.Mode)
	}
	if st.ProbePeriods+st.SkippedPeriods != 200 {
		t.Fatalf("probes %d + skips %d != 200 periods", st.ProbePeriods, st.SkippedPeriods)
	}
	if st.SkippedPeriods == 0 {
		t.Fatal("quiet trace widened nothing: no probes were skipped")
	}
	if st.WidestInterval != 8 {
		t.Fatalf("widest interval %d, want the cap 8", st.WidestInterval)
	}
	eng := rt.Engines()[0].Stats()
	if eng.WatchdogTrips != 0 {
		t.Fatalf("%d watchdog trips on a live, on-cadence monitor (sampler's own skips read as death)", eng.WatchdogTrips)
	}

	// Onset: pressure snaps the schedule back to every-period probing.
	before := rt.SamplingStats().ProbePeriods
	for i := 0; i < 30; i++ {
		ps.extra += 500
		rt.Step()
	}
	probes := rt.SamplingStats().ProbePeriods - before
	if probes < 20 {
		t.Fatalf("only %d probes in 30 burst periods: interval did not snap back on onset", probes)
	}
	if rt.Engines()[0].Stats().CPositive == 0 {
		t.Fatal("burst pressure never produced a contention verdict")
	}
}

func TestAdaptiveSamplingDeadMonitorStillTrips(t *testing.T) {
	cfg := samplingTestConfig(SamplingAdaptive)
	rt, _ := samplingScenario(t, cfg)
	for i := 0; i < 100; i++ {
		rt.Step()
	}
	if rt.SamplingStats().SkippedPeriods == 0 {
		t.Fatal("precondition: schedule never widened")
	}
	// Kill the monitor mid-widened-schedule: the declared cadence protects
	// intentional skips only — a publisher that misses its own declared
	// due period accrues staleness and must trip the watchdog.
	rt.Monitors()[0].SetDown(true)
	for i := 0; i < cfg.WatchdogPeriods+cfg.MaxProbeInterval+5; i++ {
		rt.Step()
	}
	eng := rt.Engines()[0]
	if eng.Stats().WatchdogTrips == 0 {
		t.Fatal("dead monitor never tripped the watchdog under adaptive sampling")
	}
	if !eng.Degraded() {
		t.Fatal("engine not degraded with the monitor still down")
	}
	// Revival recovers: the engine leaves fail-open once samples resume.
	rt.Monitors()[0].SetDown(false)
	for i := 0; i < 5; i++ {
		rt.Step()
	}
	if eng.Degraded() {
		t.Fatal("engine still degraded after the monitor revived")
	}
}

func TestInterruptSamplingSleepsAndFires(t *testing.T) {
	rt, ps := samplingScenario(t, samplingTestConfig(SamplingInterrupt))
	for i := 0; i < 60; i++ {
		rt.Step()
		if stale := rt.Monitors()[0].Slot().StalePeriods(); stale != 0 {
			t.Fatalf("period %d: live monitor reads stale (%d) during interrupt sleep", i, stale)
		}
	}
	if !rt.sleeping {
		t.Fatal("quiet trace never parked the pipeline behind the triggers")
	}
	st := rt.SamplingStats()
	if st.SkippedPeriods == 0 {
		t.Fatal("no periods skipped while sleeping")
	}
	if st.Keepalives == 0 {
		t.Fatal("no keepalive probes over a long sleep (watchdog blind spot)")
	}
	if len(rt.triggers) != 1 {
		t.Fatalf("%d triggers, want 1 (one per latency core)", len(rt.triggers))
	}

	// Onset: the threshold trigger must fire and wake the pipeline.
	wakeStep := -1
	for i := 0; i < 10; i++ {
		ps.extra += 500
		rt.Step()
		if !rt.sleeping {
			wakeStep = i
			break
		}
	}
	if wakeStep < 0 {
		t.Fatal("burst pressure never fired the trigger")
	}
	if wakeStep > 2 {
		t.Fatalf("trigger took %d periods to fire on a 500/period burst", wakeStep+1)
	}
	if rt.SamplingStats().TriggerFires == 0 {
		t.Fatal("stats recorded no trigger fires")
	}
	// The wake is traced: an armed span ending in a fire, plus the fired
	// marker, on the engine lane.
	var armed, fired bool
	for _, sp := range telemetry.DefaultSpans.Spans() {
		switch sp.Kind {
		case telemetry.SpanArmed:
			if sp.Value == 1 {
				armed = true
			}
		case telemetry.SpanFired:
			fired = true
		}
	}
	if !armed || !fired {
		t.Fatalf("trace missing wake spans: armed-by-fire=%v fired=%v", armed, fired)
	}
	// Awake under sustained pressure, the engine must reach a contention
	// verdict.
	for i := 0; i < 30; i++ {
		ps.extra += 500
		rt.Step()
	}
	if rt.Engines()[0].Stats().CPositive == 0 {
		t.Fatal("no contention verdict after the trigger woke the pipeline")
	}
}

func TestInterruptSamplingDeadMonitorStillTrips(t *testing.T) {
	cfg := samplingTestConfig(SamplingInterrupt)
	rt, _ := samplingScenario(t, cfg)
	for i := 0; i < 60; i++ {
		rt.Step()
	}
	if !rt.sleeping {
		t.Fatal("precondition: pipeline never slept")
	}
	rt.Monitors()[0].SetDown(true)
	for i := 0; i < cfg.WatchdogPeriods+cfg.MaxProbeInterval+5; i++ {
		rt.Step()
	}
	eng := rt.Engines()[0]
	if eng.Stats().WatchdogTrips == 0 {
		t.Fatal("dead monitor never tripped the watchdog through an interrupt sleep")
	}
	rt.Monitors()[0].SetDown(false)
	for i := 0; i < 5; i++ {
		rt.Step()
	}
	if eng.Degraded() {
		t.Fatal("engine still degraded after the monitor revived")
	}
}

func TestPollingStatsUnchanged(t *testing.T) {
	rt, _ := testScenario(t, HeuristicRule, 50)
	st := rt.SamplingStats()
	if st.Mode != SamplingPolling {
		t.Fatalf("default mode %v, want polling", st.Mode)
	}
	if st.ProbePeriods != 50 || st.SkippedPeriods != 0 {
		t.Fatalf("polling probes %d skips %d over 50 periods, want 50/0", st.ProbePeriods, st.SkippedPeriods)
	}
	if st.WidestInterval != 1 {
		t.Fatalf("polling widest interval %d, want 1", st.WidestInterval)
	}
}

func TestSamplingConfigValidation(t *testing.T) {
	base := samplingTestConfig(SamplingAdaptive)
	cases := []func(*Config){
		func(c *Config) { c.MaxProbeInterval = 0 },
		func(c *Config) { c.MaxProbeInterval = c.WatchdogPeriods },
		func(c *Config) { c.Sampling = SamplingMode(7) },
	}
	for i, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d: invalid sampling config passed Validate", i)
		}
	}
	// Legacy literal configs (zero sampling fields) must stay valid.
	legacy := Config{WindowSize: 10, UsageThresh: 150, ResponseLength: 10}
	if err := legacy.Validate(); err != nil {
		t.Errorf("legacy zero-sampling config rejected: %v", err)
	}
}
