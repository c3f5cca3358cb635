package experiments

import (
	"strings"
	"testing"

	"caer/internal/caer"
)

// underflowSentinel separates plausible LLC-miss samples (at most millions
// per period, spikes included) from an unsigned read-delta underflow
// (~1.8e19).
const underflowSentinel = 1e15

func TestFaultKindStrings(t *testing.T) {
	for _, k := range FaultKinds() {
		if s := k.String(); strings.HasPrefix(s, "FaultKind(") {
			t.Errorf("fault kind %d has no name", int(k))
		}
	}
	if s := FaultKind(99).String(); s != "FaultKind(99)" {
		t.Errorf("unknown kind = %q", s)
	}
}

// TestChaosSuiteFailsOpen is the headline acceptance check: every fault
// class under every heuristic leaves the latency app able to complete, no
// underflow-magnitude sample ever reaches the table, detection keeps
// producing verdicts, and degradation never outlives the faults.
func TestChaosSuiteFailsOpen(t *testing.T) {
	reports := quickRun[ChaosReports]("chaos")
	type regime struct {
		h caer.HeuristicKind
		s caer.SamplingMode
	}
	clean := map[regime]ChaosReport{}
	for _, r := range reports {
		if r.Fault == FaultNone {
			clean[regime{r.Heuristic, r.Sampling}] = r
		}
	}
	for _, r := range reports {
		r := r
		t.Run(r.Heuristic.String()+"/"+r.Fault.String()+"/"+r.Sampling.String(), func(t *testing.T) {
			if !r.Completed {
				t.Fatal("latency app never completed: the runtime is not fail-open")
			}
			if r.MaxSample >= underflowSentinel {
				t.Fatalf("sample %.3g reached the table: read-delta underflow", r.MaxSample)
			}
			if r.DegradedAtEnd {
				t.Error("engine still degraded after the run (faults had ceased)")
			}
			if r.CPositive+r.CNegative == 0 {
				t.Error("detection produced no verdicts at all")
			}
			base, ok := clean[regime{r.Heuristic, r.Sampling}]
			if !ok {
				t.Fatal("no clean baseline for heuristic")
			}
			// Bounded degradation: faults may cost accuracy, but must not
			// blow the latency app's run time past a small multiple of the
			// clean managed run.
			if r.Fault != FaultNone && r.Periods > 3*base.Periods {
				t.Errorf("run took %d periods vs clean %d: degradation unbounded", r.Periods, base.Periods)
			}
			switch r.Fault {
			case FaultNone, FaultMonitorCrash:
				if (r.Faults.Resets + r.Faults.Spikes + r.Faults.Drops + r.Faults.Jitters) != 0 {
					t.Errorf("counter faults injected in a %s regime: %+v", r.Fault, r.Faults)
				}
				if r.Fault == FaultMonitorCrash && r.Periods <= uint64(r.OutageEnd) {
					t.Errorf("run ended at period %d, before the outage ended at %d", r.Periods, r.OutageEnd)
				}
			case FaultCounterReset, FaultCounterSpike, FaultDroppedSample, FaultProbeJitter:
				if (r.Faults.Resets + r.Faults.Spikes + r.Faults.Drops + r.Faults.Jitters) == 0 {
					t.Error("regime injected no faults: nothing was tested")
				}
			default:
				t.Fatalf("unhandled fault kind %v", r.Fault)
			}
		})
	}
	var table strings.Builder
	WriteChaosReport(&table, reports)
	checkGolden(t, "chaos_quick", []byte(table.String()))
}

// TestChaosMonitorCrashBoundsPauses pins the watchdog guarantee end to end:
// once the monitor dies, the batch can stay paused at most one watchdog
// horizon before the engine fails open, and the engine recovers after the
// monitor revives.
func TestChaosMonitorCrashBoundsPauses(t *testing.T) {
	for _, h := range ChaosHeuristics() {
		h := h
		t.Run(h.String(), func(t *testing.T) {
			r := RunChaos(ChaosScenario{Heuristic: h, Fault: FaultMonitorCrash, Seed: 1, Quick: true})
			horizon := r.WatchdogPeriods
			if !r.Completed {
				t.Fatal("latency app never completed")
			}
			if r.Periods <= uint64(r.OutageEnd) {
				t.Fatalf("run ended at period %d, before the outage ended at %d: schedule untested", r.Periods, r.OutageEnd)
			}
			if r.WatchdogTrips == 0 {
				t.Error("watchdog never tripped during a monitor outage")
			}
			if r.DegradedAtEnd {
				t.Error("engine still degraded after the monitor revived")
			}
			// +1: a pause directive issued the period before the horizon
			// check can land is still in flight when the watchdog trips.
			if r.OutagePauseStreak > horizon+1 {
				t.Errorf("batch paused %d consecutive periods after the crash, horizon is %d",
					r.OutagePauseStreak, horizon)
			}
		})
	}
}

// TestChaosSuiteCoversInterruptSampling pins the suite's event-driven
// block: every fault class must also run under threshold-interrupt
// sampling, and those runs must recover like the polling ones (the suite's
// shared fail-open assertions apply to them via TestChaosSuiteFailsOpen —
// here we check the block exists and is complete).
func TestChaosSuiteCoversInterruptSampling(t *testing.T) {
	reports := quickRun[ChaosReports]("chaos")
	covered := map[FaultKind]bool{}
	for _, r := range reports {
		if r.Sampling == caer.SamplingInterrupt {
			if r.Heuristic != caer.HeuristicRule {
				t.Errorf("interrupt chaos run uses %s, want rule-based", r.Heuristic)
			}
			covered[r.Fault] = true
		}
	}
	for _, f := range FaultKinds() {
		if !covered[f] {
			t.Errorf("fault class %s has no interrupt-sampling chaos run", f)
		}
	}
}

// TestChaosDeterministic: the same seed reproduces the same report exactly,
// faults included.
func TestChaosDeterministic(t *testing.T) {
	s := ChaosScenario{Heuristic: caer.HeuristicRule, Fault: FaultCounterReset, Seed: 7, Quick: true}
	a, b := RunChaos(s), RunChaos(s)
	if a != b {
		t.Errorf("chaos runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestWriteChaosReport(t *testing.T) {
	var sb strings.Builder
	WriteChaosReport(&sb, []ChaosReport{
		{Heuristic: caer.HeuristicRule, Fault: FaultCounterReset, Periods: 100, CPositive: 3},
	})
	out := sb.String()
	for _, want := range []string{"rule-based", "counter-reset", "100"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
