package main

// The metric tables — names, units, directions and regression bounds —
// and the assembly of one workload's result from its reps and its traced
// run. BENCHMARK.json repeats these tables; bench_test.go keeps the two
// from drifting.
//
// Binds to: nothing of the system under test.

import (
	"fmt"
	"runtime"
	"sort"
)

// metrics are per-layer values by name; a name never set reads 0.
type metrics map[string]float64

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Times are host time,
// scaled rep by rep to the reference host's quiet speed (measure.go), and
// setup_s is raw; nothing here is simulated time. Bound is the share of the
// parent's median by which the metric may get worse before a change counts
// as a regression: 10 % on the timings, which is at least three times their
// run-to-run spread on the 2-vCPU class, and the largest on set-up, which is
// microseconds for the pairs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.10},
	{"cpu_s", "s", "lower", 0.10},
	{"periods_per_s", "1/s", "higher", 0.10},
	{"sim_minstr_per_s", "M/s", "higher", 0.10},
	{"allocs_per_period", "count", "lower", 0.01},
	{"alloc_kb_per_period", "kB", "lower", 0.01},
	{"live_heap_mb", "MB", "lower", 0.05},
}

// absSlack is what -compare allows a metric on top of its bound, in the
// metric's unit (ISSUE 11's "1 % + 1" and "max(10 %, 5 ms)"): one
// allocation, or one kB, a period; 5 ms of set-up, which is microseconds
// for the pairs and moves by a third between two runs of one commit.
var absSlack = map[string]float64{"allocs_per_period": 1, "alloc_kb_per_period": 1, "setup_s": 5e-3}

// perLayer are the traced run's metrics, <module>.<metric>. sim.* are
// simulated statistics and repeat bit for bit; unit "count" marks the
// other values that compare exactly.
var perLayer = []metricDef{
	{Name: "workload.next_calls", Unit: "count", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.next_ns.uniform", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns.stream", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns.chase", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns.stencil", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns.hotcold", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns.zipf", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns.phased", Unit: "ns", Better: "lower"},

	{Name: "mem.accesses", Unit: "count", Better: "lower"},
	{Name: "mem.l1_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "mem.l2_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "mem.l3_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "mem.l3_evictions", Unit: "count", Better: "lower"},
	{Name: "mem.l3_cross_evictions", Unit: "count", Better: "lower"},
	{Name: "mem.back_invalidations", Unit: "count", Better: "lower"},
	{Name: "mem.access_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l1_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l2_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l3_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.l3_miss_insert_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.busy_share", Unit: "ratio", Better: "lower"},

	{Name: "machine.periods", Unit: "count", Better: "lower"},
	{Name: "machine.instructions", Unit: "count", Better: "lower"},
	{Name: "machine.period_us", Unit: "us", Better: "lower"},
	{Name: "machine.instr_self_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.self_share", Unit: "ratio", Better: "lower"},
	{Name: "machine.idle_slice_ns", Unit: "ns", Better: "lower"},
	{Name: "machine.pool_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "machine.pool_speedup_w4", Unit: "ratio", Better: "higher"},

	{Name: "pmu.reads", Unit: "count", Better: "lower"},
	{Name: "pmu.probes", Unit: "count", Better: "lower"},
	{Name: "pmu.probes_skipped", Unit: "count", Better: "higher"},
	{Name: "pmu.probe_ns", Unit: "ns", Better: "lower"},

	{Name: "comm.publishes", Unit: "count", Better: "lower"},
	{Name: "comm.broadcasts", Unit: "count", Better: "lower"},
	{Name: "comm.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "comm.window_mean_ns", Unit: "ns", Better: "lower"},

	{Name: "caer.engine_ticks", Unit: "count", Better: "lower"},
	{Name: "caer.verdicts_contention", Unit: "count", Better: "lower"},
	{Name: "caer.paused_periods", Unit: "count", Better: "lower"},
	{Name: "caer.engine_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "caer.step_overhead_us", Unit: "us", Better: "lower"},
	{Name: "caer.step_us_p50", Unit: "us", Better: "lower"},
	{Name: "caer.step_us_p99", Unit: "us", Better: "lower"},

	{Name: "sched.steps", Unit: "count", Better: "lower"},
	{Name: "sched.admissions", Unit: "count", Better: "lower"},
	{Name: "sched.vetoes", Unit: "count", Better: "lower"},
	{Name: "sched.migrations", Unit: "count", Better: "lower"},
	{Name: "sched.step_overhead_us", Unit: "us", Better: "lower"},
	{Name: "sched.step_overhead_us_4k_jobs", Unit: "us", Better: "lower"},

	{Name: "fleet.ticks", Unit: "count", Better: "lower"},
	{Name: "fleet.dispatches", Unit: "count", Better: "lower"},
	{Name: "fleet.scrapes", Unit: "count", Better: "lower"},
	{Name: "fleet.scrape_us", Unit: "us", Better: "lower"},
	{Name: "fleet.tick_overhead_us", Unit: "us", Better: "lower"},
	{Name: "fleet.tick_us_p50", Unit: "us", Better: "lower"},
	{Name: "fleet.tick_us_p99", Unit: "us", Better: "lower"},
	{Name: "fleet.requests_per_s", Unit: "1/s", Better: "higher"},

	{Name: "telemetry.ops", Unit: "count", Better: "lower"},
	{Name: "telemetry.series_sample_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.write_prom_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.parse_text_us", Unit: "us", Better: "lower"},
	{Name: "telemetry.busy_share", Unit: "ratio", Better: "lower"},

	{Name: "slo.evaluate_us", Unit: "us", Better: "lower"},
	{Name: "slo.alerts_fired", Unit: "count", Better: "lower"},

	{Name: "experiments.scenario_runs", Unit: "count", Better: "lower"},
	{Name: "experiments.figure_us.6", Unit: "us", Better: "lower"},
	{Name: "experiments.figure_us.7", Unit: "us", Better: "lower"},
	{Name: "experiments.figure_us.8", Unit: "us", Better: "lower"},
	{Name: "experiments.figure_us.acc", Unit: "us", Better: "lower"},

	{Name: "sim.periods", Unit: "count", Better: "lower"},
	{Name: "sim.instructions", Unit: "count", Better: "lower"},
	{Name: "sim.llc_misses", Unit: "count", Better: "lower"},
	{Name: "sim.latency_periods", Unit: "count", Better: "lower"},
	{Name: "sim.batch_duty", Unit: "ratio", Better: "higher"},
	{Name: "sim.penalty_native_pct", Unit: "%", Better: "lower"},
	{Name: "sim.penalty_shutter_pct", Unit: "%", Better: "lower"},
	{Name: "sim.penalty_rule_pct", Unit: "%", Better: "lower"},
	{Name: "sim.jobs_completed", Unit: "count", Better: "higher"},
	{Name: "sim.svc_p99_periods", Unit: "count", Better: "lower"},
	{Name: "sim.digest", Unit: "count", Better: "lower"},

	{Name: "bench.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.control_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.noise_iqr_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.host_speed", Unit: "ratio", Better: "higher"},
	{Name: "bench.raw_wall_s", Unit: "s", Better: "lower"},
	{Name: "bench.failed_share", Unit: "ratio", Better: "lower"},
}

// metricValue is one reported number. Timings carry their quartiles and
// sample count; with fewer than ten samples beyond it no percentile above
// the median is reported, and N says so.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// workloadResult is everything the benchmark reports for one workload.
type workloadResult struct {
	Correct      bool                   `json:"correct"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FailedChecks []string               `json:"failed_checks,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end"`
	PerLayer     map[string]metricValue `json:"per_layer,omitempty"`
	TraceFile    string                 `json:"trace_file,omitempty"`

	checks []check
	sim    simStats
	// rawWallS and hostSpeed are the untraced reps' median unscaled
	// wall-clock and host speed, for bench.raw_wall_s and bench.host_speed.
	rawWallS, hostSpeed float64
}

// settle counts the checks once every one is in.
func (r *workloadResult) settle() {
	r.Attempted, r.Failed, r.FailedChecks = len(r.checks), 0, nil
	for _, c := range r.checks {
		if !c.ok {
			r.Failed++
			r.FailedChecks = append(r.FailedChecks, c.name)
		}
	}
	sort.Strings(r.FailedChecks)
	r.Correct = r.Failed == 0
	if r.PerLayer != nil {
		mv := r.PerLayer["bench.failed_share"]
		mv.Value = float64(r.Failed) / float64(r.Attempted)
		r.PerLayer["bench.failed_share"] = mv
	}
}

// endToEndResult turns a workload's untraced reps into its end-to-end
// metrics and checks.
func endToEndResult(u *untraced) *workloadResult {
	r := &workloadResult{EndToEnd: map[string]metricValue{}}
	col := map[string][]float64{}
	first := u.reps[0].out.sim
	same := true
	for _, s := range u.reps {
		periods := float64(s.out.sim.Periods)
		col["raw_wall_s"] = append(col["raw_wall_s"], s.rawWallS)
		col["host_speed"] = append(col["host_speed"], s.wallS/s.rawWallS)
		col["wall_s"] = append(col["wall_s"], s.wallS)
		col["cpu_s"] = append(col["cpu_s"], s.cpuS)
		col["periods_per_s"] = append(col["periods_per_s"], periods/s.wallS)
		col["sim_minstr_per_s"] = append(col["sim_minstr_per_s"], float64(s.out.sim.Instructions)/1e6/s.wallS)
		col["allocs_per_period"] = append(col["allocs_per_period"], float64(s.mallocs)/periods)
		col["alloc_kb_per_period"] = append(col["alloc_kb_per_period"], float64(s.allocBytes)/1e3/periods)
		col["live_heap_mb"] = append(col["live_heap_mb"], float64(s.liveHeapBytes)/1e6)
		same = same && s.out.sim.digest() == first.digest()
		r.checks = append(r.checks, s.out.checks...)
	}
	r.rawWallS, r.hostSpeed = summarize(col["raw_wall_s"]).Median, summarize(col["host_speed"]).Median
	col["setup_s"] = u.setups
	for _, d := range endToEnd {
		q := summarize(col[d.Name])
		r.EndToEnd[d.Name] = metricValue{Value: q.Median, Unit: d.Unit, Q1: q.Q1, Q3: q.Q3, N: q.N}
	}
	r.checks = append(r.checks, check{"sim.digest repeats over reps", same})
	r.sim = first
	return r
}

// tracedRun makes the one extra traced rep of w and fills r.PerLayer from
// it: counts from outside wrappers and exported counters, unit costs from
// timing each layer's public functions on the rep's own recorded input,
// and busy_share = count × unit ÷ wall_s, with the unit cost brought to the
// reference host speed wall_s is at.
func tracedRun(w workload, ref *hostRef, seed int64, scale uint64, r *workloadResult, outDir string) error {
	wall := r.EndToEnd["wall_s"]
	tr := newTracer(seed)
	e := &env{seed: seed, scale: scale, tr: tr}
	m := metrics{}

	runtime.GC() // as before every untraced rep
	before := snapshotCounters()
	clock := &segClock{ref: ref}
	endWorkload := tr.span("workload/" + w.name)
	endRep := tr.span("rep")
	endSetup := tr.span("setup")
	run := w.prepare(e)
	endSetup()
	tr.startRecording(w)
	e.clock = clock
	clock.start()
	endRun := tr.span("run")
	out := run()
	endRun()
	clock.stop()
	endRep()
	endWorkload()
	for name, v := range snapshotCounters() {
		m[name] = float64(v - before[name])
	}
	r.checks = append(r.checks, check{"sim.digest repeats under trace", out.sim.digest() == r.sim.digest()})

	// Each probe runs between two samples of the host's speed, and the
	// shares it fills — its unit costs against wall_s — are brought to the
	// reference speed wall_s is at. The unit costs themselves stay as timed.
	wallS := wall.Value
	atRefSpeed := func(probe func(), shares ...string) (speed float64) {
		first := ref.sample()
		probe()
		speed = between(first, ref.sample())
		for _, name := range shares {
			m[name] *= speed
		}
		return speed
	}
	plain := &env{seed: seed, scale: scale}
	atRefSpeed(func() { probeWorkload(tr, plain, wallS, m) }, "workload.busy_share")
	var real *levelStats
	slices := 2 * float64(out.sim.Periods) * slicesPerPeriod // runner machines have two cores
	if out.cluster != nil {
		real = clusterLevels(out.cluster)
		slices = clusterSlices(out.cluster)
		out.check("pmu/llc_misses==mem/machines", out.sim.LLCMisses == real.l3.Misses)
	}
	atRefSpeed(func() { probeMem(w, tr, plain, real, wallS, m, &out) }, "mem.busy_share")
	atRefSpeed(func() { probeMachine(w, plain, out.sim, slices, wallS, m, &out) }, "machine.self_share")
	// The control plane's seconds per rep: the engines' steps on a single
	// machine, the fleet's ticks and its nodes' scheduler steps on a fleet.
	var controlS float64
	speed := atRefSpeed(func() { probeCaer(w, plain, m, &out) })
	controlS = m["caer.engine_ticks"] * m["caer.step_overhead_us"] / 1e6 * speed
	if out.cluster != nil {
		m["fleet.requests_per_s"] = float64(out.requests) / wallS
		speed = atRefSpeed(func() { controlS = probeFleet(w, plain, tr, out.cluster, wallS, m) }, "telemetry.busy_share")
		controlS *= speed
	}
	m["experiments.scenario_runs"] = float64(out.scenarioRuns)
	for n, us := range out.figureUs {
		m["experiments.figure_us."+n] = us
	}

	s := out.sim
	m["sim.periods"] = float64(s.Periods)
	m["sim.instructions"] = float64(s.Instructions)
	m["sim.llc_misses"] = float64(s.LLCMisses)
	m["sim.latency_periods"] = float64(s.LatencyPeriods)
	m["sim.batch_duty"] = s.BatchDuty
	m["sim.penalty_native_pct"] = s.PenaltyNative
	m["sim.penalty_shutter_pct"] = s.PenaltyShutter
	m["sim.penalty_rule_pct"] = s.PenaltyRule
	m["sim.jobs_completed"] = float64(s.JobsCompleted)
	m["sim.svc_p99_periods"] = s.SvcP99Periods
	m["sim.digest"] = float64(s.digest())

	m["bench.control_share"] = controlS / wallS
	m["bench.attributed_share"] = m["workload.busy_share"] + m["mem.busy_share"] + m["machine.self_share"] + m["bench.control_share"]
	m["bench.trace_overhead_share"] = (clock.wallS - wallS) / wallS
	m["bench.noise_iqr_share"] = (wall.Q3 - wall.Q1) / wall.Value
	m["bench.host_speed"] = r.hostSpeed
	m["bench.raw_wall_s"] = r.rawWallS

	r.checks = append(r.checks, out.checks...)
	r.PerLayer = map[string]metricValue{}
	for _, d := range perLayer {
		r.PerLayer[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	for name := range m {
		if _, ok := r.PerLayer[name]; !ok {
			return fmt.Errorf("per-layer metric %q is not in the table", name)
		}
	}
	path, err := tr.writeChrome(outDir, w.name)
	if err != nil {
		return err
	}
	r.TraceFile = path
	return nil
}
