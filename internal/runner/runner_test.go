package runner

import (
	"testing"

	"caer/internal/caer"
	"caer/internal/pmu"
	"caer/internal/spec"
)

// fastProfile returns a shrunken copy of a benchmark so scenario tests run
// in milliseconds.
func fastProfile(t *testing.T, name string, instructions uint64) spec.Profile {
	t.Helper()
	p, ok := spec.ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	p.Exec.Instructions = instructions
	return p
}

func TestModeStrings(t *testing.T) {
	cases := map[Mode]string{
		ModeAlone:      "alone",
		ModeNativeColo: "native-colo",
		ModeCAER:       "caer",
		Mode(9):        "Mode(9)",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestRunUnknownModePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown mode did not panic")
		}
	}()
	Run(Scenario{Latency: spec.LBM(), Mode: Mode(9)})
}

func TestRunAloneCompletes(t *testing.T) {
	lat := fastProfile(t, "namd", 200_000)
	r := Run(Scenario{Latency: lat, Mode: ModeAlone, Seed: 1})
	if !r.Completed {
		t.Fatal("alone run did not complete")
	}
	if r.LatencyInstructions != 200_000 {
		t.Errorf("instructions = %d, want 200000", r.LatencyInstructions)
	}
	if r.Periods == 0 {
		t.Error("zero periods")
	}
	if r.BatchDuty != 0 || r.BatchInstructions != 0 {
		t.Error("alone run reports batch activity")
	}
}

func TestRunNativeColoSlowerThanAlone(t *testing.T) {
	lat := fastProfile(t, "mcf", 400_000)
	alone := Run(Scenario{Latency: lat, Mode: ModeAlone, Seed: 1})
	colo := Run(Scenario{Latency: lat, Mode: ModeNativeColo, Seed: 1})
	if !colo.Completed {
		t.Fatal("native colo did not complete")
	}
	if sd := Slowdown(colo, alone); sd <= 1.05 {
		t.Errorf("mcf+lbm native slowdown = %.3f, want noticeable contention", sd)
	}
	if colo.BatchDuty < 0.95 {
		t.Errorf("unmanaged batch duty = %.3f, want ~1.0", colo.BatchDuty)
	}
	if colo.BatchInstructions == 0 || colo.BatchMisses == 0 {
		t.Error("batch made no progress")
	}
}

func TestRunCAERBetweenAloneAndColo(t *testing.T) {
	lat := fastProfile(t, "mcf", 400_000)
	alone := Run(Scenario{Latency: lat, Mode: ModeAlone, Seed: 1})
	colo := Run(Scenario{Latency: lat, Mode: ModeNativeColo, Seed: 1})
	for _, kind := range []caer.HeuristicKind{caer.HeuristicShutter, caer.HeuristicRule} {
		t.Run(kind.String(), func(t *testing.T) {
			r := Run(Scenario{Latency: lat, Mode: ModeCAER, Heuristic: kind, Seed: 1})
			if !r.Completed {
				t.Fatal("CAER run did not complete")
			}
			if r.Periods >= colo.Periods {
				t.Errorf("CAER (%d periods) not faster than native colo (%d)", r.Periods, colo.Periods)
			}
			if r.Periods < alone.Periods {
				t.Errorf("CAER (%d periods) faster than alone (%d)?", r.Periods, alone.Periods)
			}
			if g := UtilizationGained(r); g <= 0 || g >= 1 {
				t.Errorf("utilization gained = %.3f, want in (0,1)", g)
			}
			elim := InterferenceEliminated(r, colo, alone)
			if elim <= 0 {
				t.Errorf("interference eliminated = %.3f, want positive", elim)
			}
			if r.CPositive == 0 {
				t.Error("no contention detected for mcf+lbm")
			}
		})
	}
}

func TestRunCAERQuietPairKeepsBatchRunning(t *testing.T) {
	lat := fastProfile(t, "namd", 2_000_000)
	r := Run(Scenario{Latency: lat, Mode: ModeCAER, Heuristic: caer.HeuristicRule, Seed: 1})
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	// Cold-start misses pause the batch for the first few windows, so the
	// duty cycle is slightly below 1 even for a quiet pair.
	if g := UtilizationGained(r); g < 0.9 {
		t.Errorf("quiet pair utilization gained = %.3f, want ~1 under rule heuristic", g)
	}
}

// TestRunCAERSamplingStats: the result carries the probe-schedule
// accounting, and an adaptive scenario on a quiet pair sheds probes.
func TestRunCAERSamplingStats(t *testing.T) {
	lat := fastProfile(t, "namd", 2_000_000)
	cfg := caer.DefaultConfig()
	r := Run(Scenario{Latency: lat, Mode: ModeCAER, Heuristic: caer.HeuristicRule, Seed: 1, Config: cfg})
	if r.Sampling.Mode != caer.SamplingPolling {
		t.Fatalf("default scenario sampled in %v mode, want polling", r.Sampling.Mode)
	}
	if r.Sampling.ProbePeriods != r.Periods || r.Sampling.SkippedPeriods != 0 {
		t.Fatalf("polling probes/skips = %d/%d over %d periods",
			r.Sampling.ProbePeriods, r.Sampling.SkippedPeriods, r.Periods)
	}

	cfg.Sampling = caer.SamplingAdaptive
	ra := Run(Scenario{Latency: lat, Mode: ModeCAER, Heuristic: caer.HeuristicRule, Seed: 1, Config: cfg})
	if !ra.Completed {
		t.Fatal("adaptive run did not complete")
	}
	if ra.Sampling.Mode != caer.SamplingAdaptive {
		t.Fatalf("adaptive scenario reported %v mode", ra.Sampling.Mode)
	}
	if ra.Sampling.SkippedPeriods == 0 {
		t.Error("adaptive run on a quiet pair skipped no probes")
	}
	if got := ra.Sampling.ProbePeriods + ra.Sampling.SkippedPeriods; got != ra.Periods {
		t.Errorf("probes %d + skips %d != %d periods",
			ra.Sampling.ProbePeriods, ra.Sampling.SkippedPeriods, ra.Periods)
	}
}

func TestMetricsKnownValues(t *testing.T) {
	alone := Result{Periods: 100}
	colo := Result{Periods: 150}
	managed := Result{Periods: 110, BatchDuty: 0.6}
	random := Result{Periods: 120, BatchDuty: 0.5}

	if got := Slowdown(colo, alone); got != 1.5 {
		t.Errorf("Slowdown = %v, want 1.5", got)
	}
	if got := Overhead(managed, alone); got < 0.0999 || got > 0.1001 {
		t.Errorf("Overhead = %v, want 0.1", got)
	}
	if got := InterferenceEliminated(managed, colo, alone); got != 0.8 {
		t.Errorf("InterferenceEliminated = %v, want 0.8", got)
	}
	if got := UtilizationGained(managed); got != 0.6 {
		t.Errorf("UtilizationGained = %v, want 0.6", got)
	}
	if got := Accuracy(managed, random); got < 0.1999 || got > 0.2001 {
		t.Errorf("Accuracy = %v, want 0.2", got)
	}
}

func TestMetricsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero alone", func() { Slowdown(Result{Periods: 1}, Result{}) })
	mustPanic("no penalty", func() {
		InterferenceEliminated(Result{Periods: 1}, Result{Periods: 1}, Result{Periods: 1})
	})
	mustPanic("zero random", func() { Accuracy(Result{BatchDuty: 1}, Result{}) })
}

func TestScenarioDefaults(t *testing.T) {
	s := Scenario{Latency: spec.LBM()}.withDefaults()
	if s.Batch.Name != "470.lbm" {
		t.Errorf("default batch = %q, want lbm", s.Batch.Name)
	}
	if s.MaxPeriods != 10_000_000 {
		t.Errorf("default max periods = %d", s.MaxPeriods)
	}
	if err := s.Config.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestRunDeterministic(t *testing.T) {
	lat := fastProfile(t, "soplex", 200_000)
	s := Scenario{Latency: lat, Mode: ModeCAER, Heuristic: caer.HeuristicRule, Seed: 7}
	a := Run(s)
	b := Run(s)
	if a.Periods != b.Periods || a.LatencyMisses != b.LatencyMisses || a.PausedPeriods != b.PausedPeriods {
		t.Errorf("runs diverged: %+v vs %+v", a, b)
	}
}

func TestRunMaxPeriodsSafetyValve(t *testing.T) {
	lat := fastProfile(t, "mcf", 50_000_000) // would take very long
	r := Run(Scenario{Latency: lat, Mode: ModeAlone, Seed: 1, MaxPeriods: 50})
	if r.Completed {
		t.Error("run reported completion despite the safety valve")
	}
	if r.Periods != 50 {
		t.Errorf("periods = %d, want 50", r.Periods)
	}
}

func TestRunPartitionedColo(t *testing.T) {
	lat := fastProfile(t, "omnetpp", 300_000)
	alone := Run(Scenario{Latency: lat, Mode: ModeAlone, Seed: 1})
	colo := Run(Scenario{Latency: lat, Mode: ModeNativeColo, Seed: 1})
	// Give the latency app 12 of 16 ways: contention must shrink versus
	// unpartitioned sharing, at full batch utilization.
	part := Run(Scenario{Latency: lat, Mode: ModeNativeColo, Seed: 1, PartitionWays: 12})
	if part.Periods >= colo.Periods {
		t.Errorf("partitioned colo (%d periods) not faster than shared (%d)", part.Periods, colo.Periods)
	}
	if part.Periods < alone.Periods {
		t.Errorf("partitioned colo (%d) faster than alone (%d)?", part.Periods, alone.Periods)
	}
	if part.BatchDuty < 0.95 {
		t.Errorf("partitioning throttled the batch: duty %.3f", part.BatchDuty)
	}
}

func TestRunPartitionWaysValidation(t *testing.T) {
	lat := fastProfile(t, "namd", 100_000)
	defer func() {
		if recover() == nil {
			t.Error("all-ways partition did not panic")
		}
	}()
	Run(Scenario{Latency: lat, Mode: ModeNativeColo, Seed: 1, PartitionWays: 16})
}

func TestRunDVFSActuatorScenario(t *testing.T) {
	lat := fastProfile(t, "mcf", 300_000)
	r := Run(Scenario{
		Latency:   lat,
		Mode:      ModeCAER,
		Heuristic: caer.HeuristicRule,
		Seed:      1,
		Actuator:  caer.DVFSActuator(4),
	})
	if !r.Completed {
		t.Fatal("DVFS run did not complete")
	}
	// Down-clocking (not halting) keeps the batch making progress even
	// under heavy contention, so its duty stays relatively high.
	if r.BatchDuty < 0.2 {
		t.Errorf("DVFS batch duty = %.3f, suspiciously low", r.BatchDuty)
	}
}

// TestScenarioZeroValueBatchIsLBM pins the documented default: a Scenario
// whose Batch field is left as the zero value runs against lbm, the
// paper's adversary. Anything that constructs scenarios (experiments
// suites, caer-bench) relies on this.
func TestScenarioZeroValueBatchIsLBM(t *testing.T) {
	var zero spec.Profile
	s := Scenario{Latency: spec.LBM(), Batch: zero}.withDefaults()
	if s.Batch.Name != "470.lbm" {
		t.Fatalf("zero-value Batch resolved to %q, want 470.lbm", s.Batch.Name)
	}
	lbm := spec.LBM()
	if s.Batch.Exec != lbm.Exec || s.Batch.Class != lbm.Class {
		t.Error("zero-value Batch did not adopt the full lbm profile")
	}
}

// TestRunCAERPerBatchResults pins the batch side of a CAER run against the
// engine's own accounting: the same pair stepped by a runtime built here
// must leave the counters, verdicts and pause totals Run reports.
func TestRunCAERPerBatchResults(t *testing.T) {
	s := Scenario{
		Latency:   fastProfile(t, "mcf", 400_000),
		Batch:     fastProfile(t, "milc", 200_000),
		Mode:      ModeCAER,
		Heuristic: caer.HeuristicRule,
		Seed:      5,
	}
	res := Run(s)

	s = s.withDefaults()
	m := newMachine(s)
	lat := s.Latency.NewProcess(0, s.Seed)
	rt := caer.NewRuntime(m, s.Heuristic, s.Config)
	rt.AddLatency("mcf", 0, lat)
	rt.AddBatch("milc", 1, s.Batch.Batch().NewProcess(batchBase, s.Seed+1))
	rt.RunUntil(lat.Done, s.MaxPeriods)
	st := rt.Engines()[0].Stats()

	if res.BatchInstructions == 0 || res.BatchInstructions != m.ReadCounter(1, pmu.EventInstrRetired) ||
		res.BatchMisses != m.ReadCounter(1, pmu.EventLLCMisses) {
		t.Errorf("batch totals (%d,%d) != core 1's counters (%d,%d)", res.BatchInstructions, res.BatchMisses,
			m.ReadCounter(1, pmu.EventInstrRetired), m.ReadCounter(1, pmu.EventLLCMisses))
	}
	if res.CPositive != st.CPositive || res.CNegative != st.CNegative || res.PausedPeriods != st.PausedPeriods {
		t.Errorf("engine counters (%d,%d,%d) != engine stats (%d,%d,%d)",
			res.CPositive, res.CNegative, res.PausedPeriods, st.CPositive, st.CNegative, st.PausedPeriods)
	}
	if res.PausedPeriods == 0 || st.RunPeriods+res.PausedPeriods != res.Periods {
		t.Errorf("run %d + paused %d periods != %d periods", st.RunPeriods, res.PausedPeriods, res.Periods)
	}
	if res.CPositive+res.CNegative == 0 {
		t.Error("CAER run reached no verdict")
	}
}

// TestRunNativePerBatchResults pins the native-mode batch side: the batch
// core ran every period and no engine fields are set.
func TestRunNativePerBatchResults(t *testing.T) {
	res := Run(Scenario{
		Latency: fastProfile(t, "mcf", 400_000),
		Batch:   fastProfile(t, "lbm", 150_000),
		Mode:    ModeNativeColo,
		Seed:    5,
	})
	if res.BatchInstructions == 0 || res.BatchMisses == 0 || res.BatchDuty != 1 {
		t.Errorf("unmanaged batch: %d instructions, %d misses, duty %v; want progress at duty 1",
			res.BatchInstructions, res.BatchMisses, res.BatchDuty)
	}
	if res.CPositive != 0 || res.CNegative != 0 || res.PausedPeriods != 0 ||
		res.Sampling != (caer.SamplingStats{}) {
		t.Error("native-mode batch reports engine activity")
	}
}

// TestSampleCapturesRun: Sample is the one "profile on a bare machine under
// a recording sampler" function. Its series cover exactly the periods asked
// for, agree with the scenario runner's totals when run to completion, see
// the co-runner's interference, and start after the warm-up.
func TestSampleCapturesRun(t *testing.T) {
	mcf := fastProfile(t, "mcf", 200_000)
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}

	misses, retired := Sample(mcf.Batch(), 1, true, 0, 30)
	if len(misses) != 30 || len(retired) != 30 {
		t.Fatalf("recorded %d/%d periods, want 30", len(misses), len(retired))
	}
	if sum(misses) == 0 || sum(retired) == 0 {
		t.Errorf("series empty: misses=%v instr=%v", sum(misses), sum(retired))
	}

	// To completion, alone and next to lbm: the series are the alone and
	// native-colo scenarios seen period by period.
	for _, colo := range []bool{false, true} {
		mode := ModeAlone
		if colo {
			mode = ModeNativeColo
		}
		want := Run(Scenario{Latency: mcf, Mode: mode, Seed: 1})
		misses, retired = Sample(mcf, 1, colo, 0, 0)
		if uint64(len(misses)) != want.Periods {
			t.Errorf("colo=%v: sampled %d periods to completion, scenario ran %d", colo, len(misses), want.Periods)
		}
		if uint64(sum(retired)) != want.LatencyInstructions || uint64(sum(misses)) != want.LatencyMisses {
			t.Errorf("colo=%v: sampled %v instructions / %v misses, scenario counted %d / %d",
				colo, sum(retired), sum(misses), want.LatencyInstructions, want.LatencyMisses)
		}
	}

	// The sampler is armed after the warm-up: a warmed series is the tail
	// of the cold one.
	cold, _ := Sample(mcf.Batch(), 1, false, 0, 60)
	warm, _ := Sample(mcf.Batch(), 1, false, 20, 40)
	for i := range warm {
		if warm[i] != cold[20+i] {
			t.Fatalf("warm[%d] = %v, cold[%d] = %v", i, warm[i], 20+i, cold[20+i])
		}
	}
}
