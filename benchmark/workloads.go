package main

// The five workloads. Every constant that shapes the simulated work lives
// in this file; later issues refer to the workloads by these names, so a
// change here re-baselines history.jsonl and is its own no-claim PR.
//
// Binds to: caer.Run, caer.Scenario, caer.Mode*, caer.Heuristic*,
// caer.BenchmarkByName, caer.Benchmarks, caer.Slowdown, caer.NewSuite,
// Suite.{Seed,Benchmarks,Parallelism,Result,Figure6,Figure7,Figure8,
// FigureAccuracy}, fleet.{New,Config,MachineSpec,Service,Traffic,SLOConfig,
// Policy*,Curve*}, Cluster.{Tick,Done,Ticks,Report,Nodes}, sched.Config.

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"caer"
	icaer "caer/internal/caer"
	"caer/internal/experiments"
	"caer/internal/fleet"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/sched"
	"caer/internal/spec"
	wl "caer/internal/workload"
)

const (
	// pairMissInstrMult lengthens mcf so one pair_miss rep is seconds, not
	// a fraction of one.
	pairMissInstrMult = 3
	// figureQuickDiv shortens every profile of the figure suite.
	figureQuickDiv = 8

	// fleet_mixed is the FleetSuite shape at full scale.
	fleetMixedSvcInstr = 1_000_000
	fleetMixedJobInstr = 400_000
	fleetMixedRate     = 0.033
	fleetMixedHorizon  = 1200

	fleetQuietNodes    = 8
	fleetQuietJobInstr = 8_000
	fleetQuietSvcInstr = 60_000
	fleetQuietRate     = 0.25
	fleetQuietHorizon  = 1000
	fleetQuietSetLines = 4096

	// tickBlock is the span granularity of a fleet run, and how many ticks
	// apart it offers a segment boundary.
	tickBlock = 50
)

// maxWorkers is min(nproc, 4): the load comes from one process with at
// most nproc threads, and caer-bench -workers defaults to 4.
func maxWorkers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// simStats are one rep's simulated statistics. They are exact: a change
// that only speeds up the host must leave every field, and so the digest,
// identical.
type simStats struct {
	Periods        uint64
	Instructions   uint64
	LLCMisses      uint64
	LatencyPeriods uint64
	BatchDuty      float64
	PenaltyNative  float64 // percent over the alone run
	PenaltyShutter float64
	PenaltyRule    float64
	JobsCompleted  uint64
	SvcP99Periods  float64
}

// digest folds the statistics into 48 bits, so the value survives a JSON
// float exactly.
func (s simStats) digest() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d %d %d %d %x %x %x %x %d %x",
		s.Periods, s.Instructions, s.LLCMisses, s.LatencyPeriods,
		math.Float64bits(s.BatchDuty), math.Float64bits(s.PenaltyNative),
		math.Float64bits(s.PenaltyShutter), math.Float64bits(s.PenaltyRule),
		s.JobsCompleted, math.Float64bits(s.SvcP99Periods))
	return h.Sum64() >> 16
}

// check is one output verification; failed checks feed failed_share.
type check struct {
	name string
	ok   bool
}

// repOut is what one rep of a workload hands back to the measuring loop.
type repOut struct {
	sim      simStats
	requests uint64 // fleet: completed jobs + service requests
	checks   []check
	// keep and cluster hold the system's end-of-run state, so live_heap_mb
	// measures what a finished run retains; the traced run's probes go on
	// to use the fleets' cluster.
	keep    any
	cluster *fleet.Cluster
	// scenarioRuns counts caer.Run-level scenario executions.
	scenarioRuns int
	// figureUs is figure_quick's per-figure wall-clock.
	figureUs map[string]float64
	// pausedPeriods sums the engines' paused periods (pairs, figure).
	pausedPeriods uint64
}

func (r *repOut) check(name string, ok bool) {
	r.checks = append(r.checks, check{name, ok})
}

// env is what a workload sees of one run: the seed, the smoke-test scale
// divisor, and — in the traced run only — the outside instrumentation.
type env struct {
	seed  int64
	scale uint64
	tr    *tracer // nil when untraced
	// clock, when the rep is timed, is what mark cuts into segments.
	clock *segClock
	// release, when a set-up left something running (a fleet's worker
	// pools), stops it; a set-up that is timed and never run calls it.
	release func()
}

// n shrinks a probe's loop count with the smoke-test scale.
func (e *env) n(full int) int {
	if n := full / int(e.scale); n > 16 {
		return n
	}
	return 16
}

// profile looks a benchmark up and, in the traced run, wraps its NewGen.
func (e *env) profile(name string) spec.Profile {
	p, ok := caer.BenchmarkByName(name)
	if !ok {
		panic("benchmark: unknown profile " + name)
	}
	return e.wrap(p)
}

func (e *env) wrap(p spec.Profile) spec.Profile {
	if e.tr == nil {
		return p
	}
	return e.tr.wrapProfile(p)
}

// mark offers the timed rep a segment boundary: between scenarios or blocks
// of ticks. It samples the host's speed there once the segment is long
// enough (measure.go).
func (e *env) mark() {
	if e.clock == nil || !e.clock.due() {
		return
	}
	end := e.span("bench.hostref")
	e.clock.stop()
	end()
}

func (e *env) span(name string) func() {
	if e.tr == nil {
		return func() {}
	}
	return e.tr.span(name)
}

// workload is one named set of inputs. prepare is what the benchmark can do
// ahead of the system's entry point (setup_s), and every object it builds is
// one the run uses: the whole cluster for the fleets (fleet.New), the suite
// and its 21 profiles for figure_quick, and only the two profile lookups for
// the pairs, because caer.Run constructs its machine and runtime itself —
// that construction is part of wall_s. The function prepare returns is the
// fixed simulated work (wall_s).
type workload struct {
	name string
	why  string
	// scenarios is how many caer.Run-level scenarios one rep makes, each on
	// a fresh machine; 0 for the fleets, which build their own machines.
	scenarios int
	prepare   func(e *env) func() repOut
	// pair names the latency and batch applications the traced run's
	// machine and control-loop probes bind, unwrapped.
	pair func(e *env) (lat, batch spec.Profile)
}

var workloads = []workload{
	pairWorkload("pair_miss", "mcf", "lbm", pairMissInstrMult,
		"miss-heavy pair: the L2/L3 miss path, eviction, back-invalidation and memory channel do most of the host work"),
	pairWorkload("pair_hit", "namd", "povray", 1,
		"cache-resident pair: the machine instruction loop carries the largest single share and mem runs on its private-cache hit paths"),
	{
		name:      "figure_quick",
		why:       "all 21 profiles through Figures 6-8 and both accuracy figures: the breadth guard over every profile, mode and heuristic",
		scenarios: 21 * len(figureFlavours),
		prepare:   prepareFigureQuick,
		pair:      namedPair("mcf", "lbm"),
	},
	{
		name:    "fleet_mixed",
		why:     "the full stack as caer-bench -fleet/-slo users run it: simulator-dominated, the one place a worker pool can show",
		prepare: prepareFleetMixed,
		pair:    namedPair("mcf", "lbm"),
	},
	{
		name:    "fleet_quiet",
		why:     "control-plane bound: idle cores, so sched step, dispatch, scrape+parse, series sampling and SLO evaluation are most of a tick",
		prepare: prepareFleetQuiet,
		pair:    quietProfiles,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// pairLegs are the paper's pair experiment: alone, native co-location,
// and CAER under each heuristic.
var pairLegs = [...]struct {
	name string
	mode caer.Mode
	heur caer.HeuristicKind
}{
	{"alone", caer.ModeAlone, 0},
	{"native", caer.ModeNativeColo, 0},
	{"shutter", caer.ModeCAER, caer.HeuristicShutter},
	{"rule", caer.ModeCAER, caer.HeuristicRule},
}

func namedPair(lat, batch string) func(e *env) (spec.Profile, spec.Profile) {
	return func(e *env) (spec.Profile, spec.Profile) { return e.profile(lat), e.profile(batch) }
}

func penaltyPct(r, alone caer.Result) float64 { return (caer.Slowdown(r, alone) - 1) * 100 }

func pairWorkload(name, lat, batch string, mult uint64, why string) workload {
	return workload{name: name, why: why, scenarios: len(pairLegs), pair: namedPair(lat, batch), prepare: func(e *env) func() repOut {
		l := e.profile(lat)
		l.Exec.Instructions = l.Exec.Instructions * mult / e.scale
		b := e.profile(batch)
		// Names are built here so that the measured loop allocates nothing of
		// the harness's own beside its result.
		var spans, completed [len(pairLegs)]string
		for i, leg := range pairLegs {
			spans[i] = "scenario/" + lat + "/" + leg.name
			completed[i] = "completed/" + leg.name
		}
		return func() repOut {
			var out repOut
			out.checks = make([]check, 0, len(pairLegs))
			var res [len(pairLegs)]caer.Result
			for i, leg := range pairLegs {
				end := e.span(spans[i])
				res[i] = caer.Run(caer.Scenario{
					Latency: l, Batch: b, Mode: leg.mode, Heuristic: leg.heur, Seed: e.seed,
				})
				end()
				e.mark()
				r := res[i]
				out.check(completed[i], r.Completed)
				out.sim.Periods += r.Periods
				out.sim.Instructions += r.LatencyInstructions + r.BatchInstructions
				out.sim.LLCMisses += r.LatencyMisses + r.BatchMisses
				out.pausedPeriods += r.PausedPeriods
			}
			out.scenarioRuns = len(pairLegs)
			out.sim.LatencyPeriods = res[3].Periods
			out.sim.BatchDuty = res[3].BatchDuty
			out.sim.PenaltyNative = penaltyPct(res[1], res[0])
			out.sim.PenaltyShutter = penaltyPct(res[2], res[0])
			out.sim.PenaltyRule = penaltyPct(res[3], res[0])
			out.keep = res
			return out
		}
	}}
}

type flavour struct {
	mode caer.Mode
	heur caer.HeuristicKind
}

// figureFlavours are the scenario flavours the five figures share; the
// suite memoizes them, so 21 × 5 = 105 scenario runs per rep. Figure 6
// needs the first four, the accuracy figures the last as well.
var figureFlavours = []flavour{
	{caer.ModeAlone, 0},
	{caer.ModeNativeColo, 0},
	{caer.ModeCAER, caer.HeuristicShutter},
	{caer.ModeCAER, caer.HeuristicRule},
	{caer.ModeCAER, caer.HeuristicRandom},
}

func prepareFigureQuick(e *env) func() repOut {
	s := caer.NewSuite()
	s.Seed = e.seed
	s.Parallelism = 1
	for _, p := range caer.Benchmarks() {
		p.Exec.Instructions /= figureQuickDiv * e.scale
		s.Benchmarks = append(s.Benchmarks, e.wrap(p))
	}
	s.Batch = e.wrap(caer.LBM())
	return func() repOut {
		var out repOut
		out.figureUs = map[string]float64{}
		// Each figure's scenarios run one benchmark at a time through the
		// suite's memo, so the rep has a boundary after every benchmark; the
		// figure call then assembles them. figureUs leaves the marks out.
		figure := func(n string, flavours []flavour, f func()) {
			end := e.span("figure/" + n)
			var busy time.Duration
			for _, b := range s.Benchmarks {
				t0 := time.Now()
				for _, fl := range flavours {
					s.Result(b, fl.mode, fl.heur)
				}
				busy += time.Since(t0)
				e.mark()
			}
			t0 := time.Now()
			f()
			busy += time.Since(t0)
			out.figureUs[n] = float64(busy.Nanoseconds()) / 1e3
			end()
			e.mark()
		}
		var f6 experiments.Figure6
		figure("6", figureFlavours[:4], func() { f6 = s.Figure6() })
		figure("7", nil, func() { s.Figure7() })
		figure("8", nil, func() { s.Figure8() })
		figure("acc", figureFlavours[4:], func() { s.FigureAccuracy(true, 6); s.FigureAccuracy(false, 6) })
		var duty float64
		for _, b := range s.Benchmarks {
			for _, fl := range figureFlavours {
				r := s.Result(b, fl.mode, fl.heur)
				out.scenarioRuns++
				out.check("completed/"+b.Name, r.Completed)
				out.sim.Periods += r.Periods
				out.sim.Instructions += r.LatencyInstructions + r.BatchInstructions
				out.sim.LLCMisses += r.LatencyMisses + r.BatchMisses
				out.pausedPeriods += r.PausedPeriods
				if fl.heur == caer.HeuristicRule {
					out.sim.LatencyPeriods += r.Periods
					duty += r.BatchDuty
				}
			}
		}
		out.sim.BatchDuty = duty / float64(len(s.Benchmarks))
		out.sim.PenaltyNative = (f6.MeanColo - 1) * 100
		out.sim.PenaltyShutter = (f6.MeanShutter - 1) * 100
		out.sim.PenaltyRule = (f6.MeanRule - 1) * 100
		// The paper's headline shape (EXPERIMENTS.md): rule <= shutter < native.
		out.check("shape/rule<=shutter<native", f6.MeanRule <= f6.MeanShutter && f6.MeanShutter < f6.MeanColo)
		out.keep = s
		return out
	}
}

// fleetSchedConfig is the per-machine scheduler the fleet and SLO regime
// suites use: batch-favouring engines, capacity-driven admission.
func fleetSchedConfig() sched.Config {
	cfg := icaer.DefaultConfig()
	cfg.UsageThresh = 800
	return sched.Config{
		Policy:         sched.PolicyContentionAware,
		Heuristic:      icaer.HeuristicRule,
		Caer:           cfg,
		PressureScale:  icaer.DefaultConfig().UsageThresh,
		AdmitThreshold: 100,
	}
}

var fleetSLO = fleet.SLOConfig{LatencyQuantile: 0.99, LatencyBound: 1024, Window: 64}

func prepareFleetMixed(e *env) func() repOut {
	workers := maxWorkers()
	if e.tr != nil {
		workers = 1 // the traced run records references in simulation order
	}
	mcf, namd := e.profile("mcf"), e.profile("namd")
	lbm, povray := e.profile("lbm"), e.profile("povray")
	mcf.Exec.Instructions = fleetMixedSvcInstr / e.scale
	namd.Exec.Instructions = fleetMixedSvcInstr / e.scale
	lbm.Exec.Instructions = fleetMixedJobInstr / e.scale
	povray.Exec.Instructions = fleetMixedJobInstr / e.scale
	specs := make([]fleet.MachineSpec, 4)
	for k := range specs {
		svc := fleet.Service{Profile: mcf, Core: 0, Relaunch: true}
		specs[k] = fleet.MachineSpec{Cores: 4, Domains: 2, Workers: workers, Services: []fleet.Service{svc}}
		if k >= len(specs)/2 {
			svc.Profile = namd
			specs[k] = fleet.MachineSpec{Cores: 8, Domains: 2, Workers: workers, Services: []fleet.Service{svc}}
		}
	}
	cfg := fleet.Config{
		Machines: specs,
		Sched:    fleetSchedConfig(),
		Policy:   fleet.PolicyTelemetry,
		// Offered load is scale-invariant, as in FleetSuite's quick mode.
		Traffic: fleet.Traffic{
			Curve:   fleet.CurveDiurnal,
			Rate:    fleetMixedRate * float64(e.scale),
			Horizon: fleetMixedHorizon / int(e.scale),
			Mix:     []spec.Profile{lbm, lbm, povray, lbm},
		},
		Seed:       e.seed,
		MaxPeriods: 400_000,
		SLO:        fleetSLO,
	}
	return prepareFleet(e, cfg)
}

// quietProfiles are fleet_quiet's service and job. A low-IPC profile:
// BaseCPI 40 leaves the cores stalled for most of a period, so few
// instructions retire and the simulator is cheap.
func quietProfiles(e *env) (svc, job spec.Profile) {
	quiet := e.wrap(spec.Profile{
		Name:  "900.quiet",
		Class: spec.Insensitive,
		Exec:  machine.ExecProfile{MemFraction: 0.3, BaseCPI: 40, Instructions: fleetQuietSvcInstr / e.scale},
		NewGen: func(base uint64, seed int64) wl.Generator {
			return wl.NewUniform(base, fleetQuietSetLines, 0.1)
		},
	})
	job = quiet
	job.Name = "901.quietjob"
	job.Exec.Instructions = fleetQuietJobInstr / e.scale
	return quiet, job
}

func prepareFleetQuiet(e *env) func() repOut {
	quiet, job := quietProfiles(e)
	specs := make([]fleet.MachineSpec, fleetQuietNodes)
	for k := range specs {
		specs[k] = fleet.MachineSpec{Cores: 4, Domains: 2, Workers: 1,
			Services: []fleet.Service{{Profile: quiet, Core: 0, Relaunch: true}}}
	}
	cfg := fleet.Config{
		Machines: specs,
		Sched:    fleetSchedConfig(),
		Policy:   fleet.PolicyTelemetry,
		Traffic: fleet.Traffic{
			Curve:   fleet.CurveConstant,
			Rate:    fleetQuietRate,
			Horizon: fleetQuietHorizon / int(e.scale),
			Mix:     []spec.Profile{job},
		},
		Seed:         e.seed,
		MaxPeriods:   400_000,
		SLO:          fleetSLO,
		ScrapePeriod: 4,
	}
	return prepareFleet(e, cfg)
}

// prepareFleet builds the cluster (setup) and returns the tick loop that
// drives it through its traffic horizon and drain.
func prepareFleet(e *env, cfg fleet.Config) func() repOut {
	if e.tr != nil {
		cfg.Scraper = e.tr.scraper()
	}
	c := fleet.New(cfg)
	if e.tr != nil {
		e.tr.cluster = c
	}
	e.release = func() {
		for _, n := range c.Nodes() {
			n.Machine().StopWorkers()
		}
	}
	return func() repOut {
		var out repOut
		for !c.Done() && c.Ticks() < cfg.MaxPeriods {
			if e.tr == nil {
				// The measured loop: nothing of the harness's own inside it
				// but the marks.
				for i := 0; i < tickBlock && !c.Done(); i++ {
					c.Tick()
				}
				e.mark()
				continue
			}
			end := e.tr.span(fmt.Sprintf("tick-block/%d", c.Ticks()/tickBlock))
			for i := 0; i < tickBlock && !c.Done(); i++ {
				e.tr.timedTick(c)
			}
			end()
			e.mark()
		}
		e.release()
		rep := c.Report()
		out.check("drained", c.Done() && rep.Arrivals == rep.Completed)
		out.sim.Periods = uint64(rep.Ticks)
		out.sim.JobsCompleted = uint64(rep.Completed)
		out.requests = uint64(rep.Completed)
		for _, s := range rep.Services {
			out.requests += uint64(s.Requests)
		}
		if lat := rep.MergedLatency(""); lat.N() > 0 {
			out.sim.SvcP99Periods = lat.Quantile(0.99)
		}
		for _, n := range c.Nodes() {
			m := n.Machine()
			for core := 0; core < m.Cores(); core++ {
				out.sim.Instructions += m.ReadCounter(core, pmu.EventInstrRetired)
				out.sim.LLCMisses += m.ReadCounter(core, pmu.EventLLCMisses)
			}
		}
		out.cluster = c
		return out
	}
}
