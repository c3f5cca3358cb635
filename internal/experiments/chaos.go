package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/spec"
)

// This file is the chaos regime suite: it subjects the sampling and
// communication path to the fault model of DESIGN.md §8 — counter resets,
// spurious jumps, dropped/stale probes, probe jitter, and outright CAER-M
// monitor crashes — and checks that the runtime degrades the way a
// transparent layer must: the latency-sensitive application always
// completes, no underflow-magnitude sample ever reaches the table, and a
// dead monitor can pause the batch for at most the watchdog horizon.

// FaultKind enumerates the injected fault classes.
type FaultKind int

const (
	// FaultNone is the clean baseline every faulted run is compared to.
	FaultNone FaultKind = iota
	// FaultCounterReset injects perf-style counter resets (the cumulative
	// count restarts from zero mid-run).
	FaultCounterReset
	// FaultCounterSpike injects persistent spurious forward jumps.
	FaultCounterSpike
	// FaultDroppedSample injects dropped probes (stale re-reads).
	FaultDroppedSample
	// FaultProbeJitter injects transient probe-timing offsets.
	FaultProbeJitter
	// FaultMonitorCrash kills a CAER-M monitor mid-run and restarts it
	// later — the fault the engine watchdog exists for.
	FaultMonitorCrash

	numFaultKinds
)

// String names the fault class.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultCounterReset:
		return "counter-reset"
	case FaultCounterSpike:
		return "counter-spike"
	case FaultDroppedSample:
		return "dropped-sample"
	case FaultProbeJitter:
		return "probe-jitter"
	case FaultMonitorCrash:
		return "monitor-crash"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultKinds returns every fault class, clean baseline first.
func FaultKinds() []FaultKind {
	out := make([]FaultKind, numFaultKinds)
	for i := range out {
		out[i] = FaultKind(i)
	}
	return out
}

// faultConfig maps a counter-fault class to its injection parameters. The
// probabilities are deliberately heavy — a regime is interesting only if
// faults actually land every few periods.
func (k FaultKind) faultConfig(seed int64) (pmu.FaultConfig, bool) {
	c := pmu.FaultConfig{Seed: seed}
	switch k {
	case FaultCounterReset:
		c.ResetProb = 0.05
	case FaultCounterSpike:
		c.SpikeProb = 0.05
	case FaultDroppedSample:
		c.DropProb = 0.10
	case FaultProbeJitter:
		c.JitterProb = 0.20
	case FaultNone, FaultMonitorCrash:
		return c, false
	default:
		panic(fmt.Sprintf("experiments: unknown fault kind %d", int(k)))
	}
	return c, true
}

// ChaosScenario configures one chaos regime run.
type ChaosScenario struct {
	// Heuristic is the CAER pairing under test.
	Heuristic caer.HeuristicKind
	// Fault is the injected fault class.
	Fault FaultKind
	// Seed drives workload and fault schedules.
	Seed int64
	// Quick shrinks the workload (for -short tests and `caer-bench -quick`).
	Quick bool
	// Sampling selects the probe schedule (zero value: every-period
	// polling). The interrupt regime proves the event-driven path recovers
	// through every fault class, not just clean traces.
	Sampling caer.SamplingMode
}

// Monitor-crash schedule: the monitor dies at chaosCrashStart periods and
// revives chaosOutageFactor watchdog horizons later, so the outage is long
// enough that only a working watchdog lets the batch run during it. The
// chaos runs use a tighter watchdog than DefaultConfig so that even the
// quick (-short) workload comfortably spans crash, outage, and recovery.
const (
	chaosWatchdog     = 10
	chaosCrashStart   = 20
	chaosOutageFactor = 3
	chaosMaxPeriods   = 10_000_000
)

// ChaosReport is one regime's outcome.
type ChaosReport struct {
	Heuristic caer.HeuristicKind
	Fault     FaultKind
	Sampling  caer.SamplingMode

	// Completed reports whether the latency-sensitive app finished.
	Completed bool
	// Periods is the latency app's wall-clock run length.
	Periods uint64
	// CPositive / CNegative are the engine's verdict counts.
	CPositive, CNegative uint64
	// PausedPeriods counts periods the batch was directed to pause.
	PausedPeriods uint64
	// WatchdogTrips / DegradedTicks are the engine's fail-open counters.
	WatchdogTrips, DegradedTicks uint64
	// DegradedAtEnd reports whether the engine was still failing open when
	// the run finished (it must not be, once faults cease).
	DegradedAtEnd bool
	// MaxSample is the largest LLC-miss sample either slot published. An
	// unhardened read-delta underflow would surface here as ~1.8e19.
	MaxSample float64
	// Faults counts the injected counter faults (zero for FaultNone and
	// FaultMonitorCrash).
	Faults pmu.FaultCounts
	// OutagePauseStreak is the longest consecutive run of paused periods
	// observed while the monitor was down (FaultMonitorCrash only).
	// Fail-open bounds it by the watchdog horizon; pauses after the monitor
	// revives are legitimate detection/response pauses and are not counted.
	OutagePauseStreak int
	// OutageEnd is the period the monitor revived (FaultMonitorCrash only);
	// reports with Periods <= OutageEnd never exercised the recovery path.
	OutageEnd int
	// WatchdogPeriods is the staleness horizon the run used.
	WatchdogPeriods int
	// SkippedPeriods counts probe periods the sampling schedule elided
	// (zero under polling).
	SkippedPeriods uint64
}

// RunChaos executes one chaos regime: mcf (the most contention-sensitive
// latency app) next to the lbm batch adversary, with the scenario's fault
// class injected into the sampling path.
func RunChaos(s ChaosScenario) ChaosReport {
	lat, ok := spec.ByName("mcf")
	if !ok {
		panic("experiments: mcf profile missing")
	}
	if s.Quick {
		lat.Exec.Instructions /= 4
	}

	cfg := caer.DefaultConfig()
	cfg.WatchdogPeriods = chaosWatchdog
	cfg.Sampling = s.Sampling
	// The keepalive cadence must stay inside the tight chaos watchdog.
	if cfg.MaxProbeInterval >= chaosWatchdog {
		cfg.MaxProbeInterval = chaosWatchdog - 2
	}
	m := machine.New(machine.Config{Cores: 2})
	var opts []caer.Option
	var faults *pmu.FaultSource
	if fc, isCounterFault := s.Fault.faultConfig(s.Seed); isCounterFault {
		faults = pmu.NewFaultSource(m, fc)
		opts = append(opts, caer.WithSource(faults))
	}
	rt := caer.NewRuntime(m, s.Heuristic, cfg, opts...)
	latProc := lat.NewProcess(0, s.Seed)
	rt.AddLatency("mcf", 0, latProc)
	rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, s.Seed+1))

	out := ChaosReport{Heuristic: s.Heuristic, Fault: s.Fault, Sampling: s.Sampling, WatchdogPeriods: cfg.WatchdogPeriods}
	outageEnd := chaosCrashStart + chaosOutageFactor*cfg.WatchdogPeriods
	latSlot := rt.Monitors()[0].Slot()
	streak := 0
	for p := 0; p < chaosMaxPeriods && !latProc.Done(); p++ {
		if s.Fault == FaultMonitorCrash {
			if p == chaosCrashStart {
				rt.Monitors()[0].SetDown(true)
			}
			if p == outageEnd {
				rt.Monitors()[0].SetDown(false)
			}
		}
		rt.Step()
		if v := latSlot.LastSample(); v > out.MaxSample {
			out.MaxSample = v
		}
		eng := rt.Engines()[0]
		if v := eng.OwnMean(); v > out.MaxSample {
			out.MaxSample = v
		}
		if s.Fault == FaultMonitorCrash && p >= chaosCrashStart && p < outageEnd {
			if eng.Directive() == comm.DirectivePause {
				streak++
				if streak > out.OutagePauseStreak {
					out.OutagePauseStreak = streak
				}
			} else {
				streak = 0
			}
		}
	}

	eng := rt.Engines()[0]
	st := eng.Stats()
	out.Completed = latProc.Done()
	out.Periods = m.Periods()
	out.CPositive = st.CPositive
	out.CNegative = st.CNegative
	out.PausedPeriods = st.PausedPeriods
	out.WatchdogTrips = st.WatchdogTrips
	out.DegradedTicks = st.DegradedTicks
	out.DegradedAtEnd = eng.Degraded()
	out.OutageEnd = outageEnd
	out.SkippedPeriods = rt.SamplingStats().SkippedPeriods
	if faults != nil {
		out.Faults = faults.Counts()
	}
	return out
}

// ChaosHeuristics are the pairings the chaos suite covers: the paper's two
// deployable configurations plus the hybrid extension.
func ChaosHeuristics() []caer.HeuristicKind {
	return []caer.HeuristicKind{caer.HeuristicShutter, caer.HeuristicRule, caer.HeuristicHybrid}
}

// ChaosReports is the chaos suite's result: one report per regime, clean
// baselines first within each heuristic/sampling block.
type ChaosReports []ChaosReport

// ChaosSuite runs every fault class against every chaos heuristic under
// polling, then re-runs the full fault sweep with the rule heuristic in
// threshold-interrupt mode — the event-driven path must recover through
// every fault class too.
func ChaosSuite(seed int64, quick bool) ChaosReports {
	var out ChaosReports
	for _, h := range ChaosHeuristics() {
		for _, f := range FaultKinds() {
			out = append(out, RunChaos(ChaosScenario{Heuristic: h, Fault: f, Seed: seed, Quick: quick}))
		}
	}
	for _, f := range FaultKinds() {
		out = append(out, RunChaos(ChaosScenario{
			Heuristic: caer.HeuristicRule, Fault: f, Seed: seed, Quick: quick,
			Sampling: caer.SamplingInterrupt,
		}))
	}
	return out
}

// Check enforces the fail-open gate: under every fault class the latency
// app completes and the engine is no longer degraded once faults cease.
func (rs ChaosReports) Check() error {
	for _, r := range rs {
		if !r.Completed {
			return fmt.Errorf("fail-open violation: %s/%s never completed", r.Heuristic, r.Fault)
		}
		if r.DegradedAtEnd {
			return fmt.Errorf("fail-open violation: %s/%s still degraded after faults ceased", r.Heuristic, r.Fault)
		}
	}
	return nil
}

// Holds is the line printed once Check passes.
func (rs ChaosReports) Holds() string {
	return "all regimes fail open: latency app completed under every fault class"
}

// Render writes the suite heading and the chaos table.
func (rs ChaosReports) Render(w io.Writer) error {
	fmt.Fprintf(w, "Chaos regimes (fault injection, DESIGN.md §8)\n\n")
	WriteChaosReport(w, rs)
	_, err := fmt.Fprintln(w)
	return err
}

// WriteChaosReport renders the suite's reports as the EXPERIMENTS.md chaos
// table.
func WriteChaosReport(w io.Writer, reports []ChaosReport) {
	fmt.Fprintf(w, "%-12s %-15s %-9s %9s %7s/%-7s %7s %6s %6s %8s %11s\n",
		"heuristic", "fault", "sampling", "periods", "c+", "c-", "paused", "trips", "degr", "skipped", "max-sample")
	for _, r := range reports {
		fmt.Fprintf(w, "%-12s %-15s %-9s %9d %7d/%-7d %7d %6d %6d %8d %11.0f\n",
			r.Heuristic, r.Fault, r.Sampling, r.Periods, r.CPositive, r.CNegative,
			r.PausedPeriods, r.WatchdogTrips, r.DegradedTicks, r.SkippedPeriods, r.MaxSample)
	}
}
