// Package runner executes the paper's co-location scenarios end to end and
// extracts the evaluation metrics: a latency-sensitive benchmark runs to
// completion on core 0 (its wall-clock period count is the figure of
// merit), optionally next to a batch application on core 1 that is either
// unmanaged (native co-location), managed by a CAER heuristic, or absent
// (the baseline the paper's "disallow co-location" policy corresponds to).
//
// The batch application is an endless service (spec.Profile.Batch): it
// outlives every latency-sensitive run, which is what the paper's scripts
// reach by relaunching lbm whenever it finishes (§6.1), minus the cold
// restarts.
//
// The pair in its three modes is all this package runs; queueing and placing
// batch work across LLC domains is internal/sched's (sched.RunJobs).
package runner

import (
	"fmt"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// Mode distinguishes the three ways the pair can run.
type Mode int

const (
	// ModeAlone runs only the latency-sensitive application (the
	// disallow-co-location policy).
	ModeAlone Mode = iota
	// ModeNativeColo co-locates both applications with no runtime.
	ModeNativeColo
	// ModeCAER co-locates both applications under a CAER heuristic.
	ModeCAER
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAlone:
		return "alone"
	case ModeNativeColo:
		return "native-colo"
	case ModeCAER:
		return "caer"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Scenario describes one co-location experiment of the pair.
type Scenario struct {
	// Latency is the latency-sensitive benchmark (runs to completion).
	Latency spec.Profile
	// Batch is the throughput adversary; the zero value (detected by an
	// empty Name) means lbm, the paper's adversary. Pinned by
	// TestScenarioZeroValueBatchIsLBM.
	Batch spec.Profile
	// Mode selects alone / native / CAER execution.
	Mode Mode
	// Heuristic selects the CAER pairing when Mode == ModeCAER.
	Heuristic caer.HeuristicKind
	// Config is the CAER configuration; zero value means caer.DefaultConfig.
	Config caer.Config
	// Seed drives all stochastic choices. The latency app uses Seed, the
	// batch app Seed+1.
	Seed int64
	// MaxPeriods bounds the run as a safety valve; zero means 10,000,000.
	MaxPeriods int
	// Actuator optionally replaces the pause actuator (DVFS extension).
	Actuator caer.Actuator
	// PartitionWays statically way-partitions the shared L3: the latency
	// application gets PartitionWays ways, the batch application the rest.
	// This is the hardware-QoS ablation (cf. the paper's related work on
	// cache partitioning); 0 disables partitioning. Only meaningful for
	// co-located modes.
	PartitionWays int
}

func (s Scenario) withDefaults() Scenario {
	if s.Batch.Name == "" {
		s.Batch = spec.LBM()
	}
	if s.Config.WindowSize == 0 {
		s.Config = caer.DefaultConfig()
	}
	if s.MaxPeriods == 0 {
		s.MaxPeriods = 10_000_000
	}
	return s
}

// batchBase places the batch application's footprint far from the latency
// application's (they are separate processes and share no data).
const batchBase = 1 << 28

// pairCores sizes the pair's machine: the paper's prototype shape, the
// latency-sensitive application on core 0 and the batch on core 1.
const pairCores = 2

// Result is one scenario's outcome.
type Result struct {
	// Periods is the latency-sensitive application's wall-clock run length
	// in sampling periods — the paper's execution-time metric.
	Periods uint64
	// Completed reports whether the latency app finished within MaxPeriods.
	Completed bool

	// LatencyInstructions / LatencyMisses are the latency app's totals.
	LatencyInstructions uint64
	LatencyMisses       uint64
	// BatchInstructions / BatchMisses are the batch core's totals over the
	// same wall-clock window (0 in ModeAlone).
	BatchInstructions uint64
	BatchMisses       uint64

	// BatchDuty is the batch core's R/(R+I) over the run — the paper's
	// "utilization gained" by allowing co-location (0 in ModeAlone, 1 in
	// unmanaged co-location).
	BatchDuty float64
	// ChipUtilization is Equation 1 over the occupied cores.
	ChipUtilization float64

	// CPositive / CNegative / PausedPeriods are the batch engine's decision
	// counters (CAER runs only).
	CPositive, CNegative, PausedPeriods uint64

	// Sampling is the runtime's probe-schedule accounting (CAER runs
	// only): which mode ran and how many probe periods it spent or shed.
	Sampling caer.SamplingStats
}

// Run executes the scenario to completion (or MaxPeriods) and returns the
// result. Alone, native and CAER are one machine and one loop: the latency
// application on core 0, the batch application (unless alone) on core 1,
// stepped bare or — under CAER — by the runtime that manages the pair.
func Run(s Scenario) Result {
	s = s.withDefaults()
	switch s.Mode {
	case ModeAlone:
		telemetry.RunnerRunsAlone.Inc()
	case ModeNativeColo:
		telemetry.RunnerRunsNative.Inc()
	case ModeCAER:
		telemetry.RunnerRunsCAER.Inc()
	default:
		panic(fmt.Sprintf("runner: unknown mode %d", int(s.Mode)))
	}

	m := newMachine(s)
	lat := s.Latency.NewProcess(0, s.Seed)
	var batch *machine.Process
	if s.Mode != ModeAlone {
		batch = s.Batch.Batch().NewProcess(batchBase, s.Seed+1)
	}
	var rt *caer.Runtime
	if s.Mode == ModeCAER {
		var opts []caer.Option
		if s.Actuator != nil {
			opts = append(opts, caer.WithActuator(s.Actuator))
		}
		rt = caer.NewRuntime(m, s.Heuristic, s.Config, opts...)
		rt.AddLatency(spec.ShortName(s.Latency.Name), 0, lat)
		rt.AddBatch(spec.ShortName(s.Batch.Name), 1, batch)
		rt.RunUntil(lat.Done, s.MaxPeriods)
	} else {
		m.Bind(0, lat)
		if batch != nil {
			m.Bind(1, batch)
		}
		for p := 0; p < s.MaxPeriods && !lat.Done(); p++ {
			m.RunPeriod()
			telemetry.RunnerPeriods.Inc()
		}
	}

	res := Result{
		Completed:           lat.Done(),
		Periods:             m.Periods(),
		LatencyInstructions: lat.Retired(),
		LatencyMisses:       m.ReadCounter(0, pmu.EventLLCMisses),
		ChipUtilization:     m.Utilization(2),
	}
	if batch == nil {
		return res
	}
	res.BatchInstructions = m.ReadCounter(1, pmu.EventInstrRetired)
	res.BatchMisses = m.ReadCounter(1, pmu.EventLLCMisses)
	res.BatchDuty = m.Core(1).Utilization()
	if rt != nil { // without a runtime the batch ran unmanaged: no verdicts
		st := rt.Engines()[0].Stats()
		res.CPositive, res.CNegative, res.PausedPeriods = st.CPositive, st.CNegative, st.PausedPeriods
		res.Sampling = rt.SamplingStats()
	}
	return res
}

// newMachine builds the scenario's machine, way-partitioned between the
// latency core and the batch core under PartitionWays.
func newMachine(s Scenario) *machine.Machine {
	m := machine.New(machine.Config{Cores: pairCores})
	if s.PartitionWays > 0 {
		h := m.Hierarchy()
		ways := h.L3().Ways()
		if s.PartitionWays >= ways {
			panic(fmt.Sprintf("runner: partition of %d ways leaves none for the batch (L3 has %d)", s.PartitionWays, ways))
		}
		h.SetL3OwnerMask(0, mem.ContiguousMask(0, s.PartitionWays))
		h.SetL3OwnerMask(1, mem.ContiguousMask(s.PartitionWays, ways))
	}
	return m
}

// Sample records a profile's per-period PMU series on the paper's 2-core
// machine: p on core 0, lbm next to it on core 1 when colo is set. After
// warmup unrecorded periods a recording sampler is armed and probed once
// per period, for at most periods periods (0 = until p completes). It
// returns core 0's per-period LLC misses and instructions retired — the
// raw data of Figure 3, `caer-run -series` and `caer-run -workloads`.
func Sample(p spec.Profile, seed int64, colo bool, warmup, periods int) (misses, retired []float64) {
	m := machine.New(machine.Config{Cores: pairCores})
	proc := p.NewProcess(0, seed)
	m.Bind(0, proc)
	if colo {
		m.Bind(1, spec.LBM().Batch().NewProcess(batchBase, seed+1))
	}
	for i := 0; i < warmup; i++ {
		m.RunPeriod()
	}
	sampler := pmu.NewSampler(pmu.New(m, 0), []pmu.Event{pmu.EventLLCMisses, pmu.EventInstrRetired}, true)
	for i := 0; (periods == 0 || i < periods) && !proc.Done(); i++ {
		m.RunPeriod()
		sampler.Probe()
	}
	return sampler.Series(pmu.EventLLCMisses), sampler.Series(pmu.EventInstrRetired)
}
