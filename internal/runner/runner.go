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
package runner

import (
	"fmt"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// Mode distinguishes the four ways a scenario can run.
type Mode int

const (
	// ModeAlone runs only the latency-sensitive application (the
	// disallow-co-location policy).
	ModeAlone Mode = iota
	// ModeNativeColo co-locates both applications with no runtime.
	ModeNativeColo
	// ModeCAER co-locates both applications under a CAER heuristic.
	ModeCAER
	// ModeScheduled runs the latency app as a pinned service on a
	// multi-LLC-domain machine while the batch work flows through
	// internal/sched's admission queue and placement engine; each placed
	// job still runs under a per-domain CAER engine.
	ModeScheduled
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
	case ModeScheduled:
		return "scheduled"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Scenario describes one co-location experiment.
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
	// Cores sizes the machine; zero means 2 (the paper's prototype shape:
	// one latency-sensitive + one batch).
	Cores int
	// MaxPeriods bounds the run as a safety valve; zero means 10,000,000.
	MaxPeriods int
	// Workers sizes the machine's domain-stepper worker pool: with more
	// than one LLC domain and Workers > 1, independent domains step on
	// parallel host cores with bit-identical per-seed results (the machine's
	// determinism contract, pinned by the experiments determinism test).
	// 0 or 1 = serial stepping.
	Workers int
	// Actuator optionally replaces the pause actuator (DVFS extension).
	Actuator caer.Actuator
	// PartitionWays statically way-partitions the shared L3: the latency
	// application gets PartitionWays ways, the batch application the rest.
	// This is the hardware-QoS ablation (cf. the paper's related work on
	// cache partitioning); 0 disables partitioning. Only meaningful for
	// co-located modes.
	PartitionWays int

	// Scheduled-mode knobs (Mode == ModeScheduled; ignored otherwise).

	// Domains splits the machine's cores into LLC domains; zero means 2.
	// Cores defaults to 4*Domains in scheduled mode and must divide evenly.
	Domains int
	// Jobs are the finite batch work items submitted to the admission
	// queue before the run starts, in order. Their Instructions counts are
	// used as-is (each runs to completion once).
	Jobs []spec.Profile
	// Sched configures the placement/admission subsystem: policy,
	// thresholds, aging bound, migration rate. Its Heuristic and Caer
	// fields are overridden by the scenario's Heuristic and Config so the
	// engine setup matches the other modes.
	Sched sched.Config
}

func (s Scenario) withDefaults() Scenario {
	if s.Batch.Name == "" {
		s.Batch = spec.LBM()
	}
	if s.Config.WindowSize == 0 {
		s.Config = caer.DefaultConfig()
	}
	if s.Mode == ModeScheduled {
		if s.Domains == 0 {
			s.Domains = 2
		}
		if s.Cores == 0 {
			s.Cores = 4 * s.Domains
		}
	} else if s.Cores < 2 {
		s.Cores = 2
	}
	if s.MaxPeriods == 0 {
		s.MaxPeriods = 10_000_000
	}
	return s
}

// batchBase places the batch application's footprint far from the latency
// application's (they are separate processes and share no data); scheduled
// jobs are spread jobStride apart above it.
const (
	batchBase = 1 << 28
	jobStride = 1 << 26
)

// Result is one scenario's outcome.
type Result struct {
	Scenario Scenario

	// Periods is the latency-sensitive application's wall-clock run length
	// in sampling periods — the paper's execution-time metric.
	Periods uint64
	// Completed reports whether the latency app finished within MaxPeriods.
	Completed bool

	// LatencyInstructions / LatencyMisses are the latency app's totals.
	LatencyInstructions uint64
	LatencyMisses       uint64
	// BatchInstructions / BatchMisses are the batch side's totals over the
	// same wall-clock window: the batch core's counters, or the sum over
	// every submitted job in scheduled mode (0 in ModeAlone).
	BatchInstructions uint64
	BatchMisses       uint64

	// BatchDuty is the batch core's R/(R+I) over the run — the paper's
	// "utilization gained" by allowing co-location (0 in ModeAlone, 1 in
	// unmanaged co-location).
	BatchDuty float64
	// ChipUtilization is Equation 1 over the occupied cores.
	ChipUtilization float64

	// Engine decision counters: the batch engine's in CAER runs, summed
	// over every job's engine in scheduled mode.
	CPositive, CNegative, PausedPeriods uint64
	// DecisionLog is the batch engine's most recent decisions (CAER runs
	// only; bounded by the engine's log capacity).
	DecisionLog []caer.Event

	// Sampling is the runtime's probe-schedule accounting (CAER runs
	// only): which mode ran and how many probe periods it spent or shed.
	Sampling caer.SamplingStats

	// BatchResults breaks the batch-side outcome down per application: the
	// one batch application (native/CAER modes) or one entry per submitted
	// job (scheduled mode, submission order). Empty in ModeAlone.
	BatchResults []BatchResult

	// Scheduled-mode outcome (Mode == ModeScheduled; zero otherwise).

	// SchedDecisions is the scheduler's admission/migration/completion
	// timeline.
	SchedDecisions []sched.Decision
	// JobsCompleted counts submitted jobs that ran to completion — the
	// admitted batch throughput the regime suite holds equal across
	// policies.
	JobsCompleted int
	// MaxWait is the longest any job waited in the admission queue
	// (periods); bounded by Sched.AgingBound while cores are free.
	MaxWait int
	// Migrations counts cross-domain job moves.
	Migrations int
}

// BatchResult is one batch application's (or scheduled job's) outcome.
type BatchResult struct {
	Name   string
	Core   int // -1 if the job was never placed
	Domain int // LLC domain of Core (-1 if never placed)

	// Instructions and Misses are the application's own totals (per
	// process, not per core, so scheduled-mode migration and core reuse do
	// not mix applications).
	Instructions uint64
	Misses       uint64

	// PausedPeriods / RunPeriods are its engine's actuation totals (zero
	// when it ran unmanaged: native mode, or a scheduled job on a domain
	// with no latency app). CPositive/CNegative are its engine's verdicts.
	PausedPeriods, RunPeriods uint64
	CPositive, CNegative      uint64

	// Scheduled-mode lifecycle: queue wait, forced-aging flag, admission /
	// completion periods (1-based, 0 = never), migration count, and
	// whether the job finished within the run.
	Waited     int
	Aged       bool
	Admitted   uint64
	DonePeriod uint64
	Completed  bool
	Migrations int
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
	case ModeScheduled:
		telemetry.RunnerRunsScheduled.Inc()
		return runScheduled(s)
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
		Scenario:            s,
		Completed:           lat.Done(),
		Periods:             m.Periods(),
		LatencyInstructions: lat.Retired(),
		LatencyMisses:       m.ReadCounter(0, pmu.EventLLCMisses),
		ChipUtilization:     m.Utilization(2),
	}
	if batch == nil {
		return res
	}
	var st caer.EngineStats // stays zero without a runtime: the batch ran unmanaged
	if rt != nil {
		eng := rt.Engines()[0]
		st = eng.Stats()
		res.DecisionLog = eng.Log().Events()
		res.Sampling = rt.SamplingStats()
	}
	res.BatchInstructions = m.ReadCounter(1, pmu.EventInstrRetired)
	res.BatchMisses = m.ReadCounter(1, pmu.EventLLCMisses)
	res.BatchDuty = m.Core(1).Utilization()
	res.CPositive, res.CNegative, res.PausedPeriods = st.CPositive, st.CNegative, st.PausedPeriods
	res.BatchResults = []BatchResult{{
		Name: spec.ShortName(s.Batch.Name), Core: 1, Domain: m.DomainOf(1),
		Instructions: res.BatchInstructions, Misses: res.BatchMisses,
		PausedPeriods: st.PausedPeriods, RunPeriods: st.RunPeriods,
		CPositive: st.CPositive, CNegative: st.CNegative,
	}}
	return res
}

// newMachine builds the scenario's machine, way-partitioned between the
// latency core and the rest under PartitionWays.
func newMachine(s Scenario) *machine.Machine {
	m := machine.New(machine.Config{Cores: s.Cores, Workers: s.Workers})
	if s.PartitionWays > 0 {
		h := m.Hierarchy()
		ways := h.L3().Ways()
		if s.PartitionWays >= ways {
			panic(fmt.Sprintf("runner: partition of %d ways leaves none for the batch (L3 has %d)", s.PartitionWays, ways))
		}
		h.SetL3OwnerMask(0, mem.ContiguousMask(0, s.PartitionWays))
		for core := 1; core < s.Cores; core++ {
			h.SetL3OwnerMask(core, mem.ContiguousMask(s.PartitionWays, ways))
		}
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
	m := machine.New(machine.Config{Cores: 2})
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

// runScheduled executes the scenario on a multi-LLC-domain machine with
// the batch side flowing through internal/sched: the latency app is a
// pinned service on core 0, the Jobs wait in the admission queue and are
// placed by the configured policy, each under a per-domain CAER engine.
// The run ends when the latency app completes AND every job has drained
// (or MaxPeriods).
func runScheduled(s Scenario) Result {
	if s.PartitionWays > 0 {
		panic("runner: PartitionWays is not supported in scheduled mode")
	}
	m := machine.New(machine.Config{Cores: s.Cores, Domains: s.Domains, Workers: s.Workers})
	defer m.StopWorkers()
	cfg := s.Sched
	cfg.Heuristic = s.Heuristic
	cfg.Caer = s.Config
	sd := sched.New(m, cfg)

	lat := s.Latency.NewProcess(0, s.Seed)
	sd.AddLatency(spec.ShortName(s.Latency.Name), 0, lat)
	for i, p := range s.Jobs {
		p := p
		base := uint64(batchBase) + uint64(i)*jobStride
		seed := s.Seed + 1 + int64(i)
		sd.Submit(sched.Job{Name: spec.ShortName(p.Name), New: func() *machine.Process {
			return p.NewProcess(base, seed)
		}})
	}

	sd.RunUntil(func() bool { return lat.Done() && sd.Done() }, s.MaxPeriods)

	res := Result{Scenario: s}
	res.Completed = lat.Done()
	res.Periods = sd.LatencyReports()[0].Done
	if res.Periods == 0 {
		res.Periods = sd.Period() // latency app never finished: bounded run
	}
	res.LatencyInstructions = lat.Retired()
	res.LatencyMisses = m.ReadCounter(0, pmu.EventLLCMisses)
	res.SchedDecisions = sd.Decisions()
	res.MaxWait = sd.MaxWait()
	res.Migrations = sd.Migrations()
	res.ChipUtilization = m.Utilization(s.Cores)

	// Batch duty in scheduled mode: the fraction of placed job-periods the
	// engines let run. Jobs on latency-free domains have no engine and
	// count as running every period they occupied a core.
	var run, paused float64
	for _, r := range sd.JobReports() {
		done := r.State == sched.JobDone
		res.BatchResults = append(res.BatchResults, BatchResult{
			Name: r.Name, Core: r.Core, Domain: r.Domain,
			Instructions: r.Instructions, Misses: r.Misses,
			PausedPeriods: r.PausedPeriods, RunPeriods: r.RunPeriods,
			CPositive: r.CPositive, CNegative: r.CNegative,
			Waited: r.Waited, Aged: r.Aged, Admitted: r.Admitted, DonePeriod: r.Done,
			Completed: done, Migrations: r.Migrations,
		})
		res.BatchInstructions += r.Instructions
		res.BatchMisses += r.Misses
		res.CPositive += r.CPositive
		res.CNegative += r.CNegative
		res.PausedPeriods += r.PausedPeriods
		if done {
			res.JobsCompleted++
		}
		if r.RunPeriods+r.PausedPeriods > 0 {
			run += float64(r.RunPeriods)
			paused += float64(r.PausedPeriods)
		} else if r.Admitted > 0 && r.Done >= r.Admitted {
			run += float64(r.Done - r.Admitted + 1)
		}
	}
	if run+paused > 0 {
		res.BatchDuty = run / (run + paused)
	}
	return res
}
