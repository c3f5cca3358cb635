package main

// sched, fleet, telemetry and slo layers, probed on the traced run's own
// finished cluster: a fleet tick against the node steps it contains, a
// node step against the bare period it contains, and the telemetry data
// plane's calls (sample, render, parse, evaluate) one at a time.
//
// Binds to: Cluster.{Tick,Nodes,Report}, Node.{Sched,Machine,Registry,
// Series,SLO}, sched.{New,Config,Job}, Scheduler.{Step,AddLatency,Submit,
// Done}, Machine.{RunPeriod,Domains,DomainHierarchy,Cores,Periods}, telemetry.{NewSeries,ParseText,Default}, Series.Sample,
// Registry.{WritePrometheus,SelfOps}, slo.Engine.Evaluate, and the
// pre-registered telemetry counters.

import (
	"bytes"

	"caer"
	"caer/internal/fleet"
	"caer/internal/machine"
	"caer/internal/sched"
	"caer/internal/telemetry"
)

// counterSources are the exported counters whose deltas over the traced
// rep are per-layer work counts.
var counterSources = map[string]*telemetry.Counter{
	"pmu.reads":                telemetry.PMUReads,
	"pmu.probes":               telemetry.PMUProbes,
	"pmu.probes_skipped":       telemetry.PMUProbesSkipped,
	"comm.publishes":           telemetry.CommPublishes,
	"comm.broadcasts":          telemetry.CommBroadcasts,
	"caer.engine_ticks":        telemetry.EngineTicks,
	"caer.verdicts_contention": telemetry.EngineVerdictContention,
	"caer.paused_periods":      telemetry.EnginePausedPeriods,
	"sched.admissions":         telemetry.SchedAdmissions,
	"sched.vetoes":             telemetry.SchedVetoes,
	"sched.migrations":         telemetry.SchedMigrations,
	"fleet.ticks":              telemetry.FleetTicks,
	"fleet.dispatches":         telemetry.FleetDispatches,
}

func snapshotCounters() map[string]uint64 {
	out := make(map[string]uint64, len(counterSources)+1)
	for name, c := range counterSources {
		out[name] = c.Value()
	}
	out["telemetry.ops"] = telemetry.Default().SelfOps()
	return out
}

// clusterLevels sums the cache counters of every domain of every node.
func clusterLevels(c *fleet.Cluster) *levelStats {
	var st levelStats
	for _, n := range c.Nodes() {
		m := n.Machine()
		for d := 0; d < m.Domains(); d++ {
			st.add(m.DomainHierarchy(d))
		}
	}
	return &st
}

// clusterSlices counts the core-slices the fleet's machines stepped
// through.
func clusterSlices(c *fleet.Cluster) float64 {
	var slices float64
	for _, n := range c.Nodes() {
		m := n.Machine()
		slices += float64(m.Cores()) * float64(m.Periods()) * slicesPerPeriod
	}
	return slices
}

// schedOverhead is a node-shaped scheduler's step cost over the bare
// period it contains, once `jobs` jobs have run to completion on it: Step
// walks every job ever submitted. Short periods resolve it (see
// tinyPeriods).
func schedOverhead(w workload, e *env, jobs int) float64 {
	lat, batch := w.pair(e)
	m := caer.NewMachine(tinyPeriods(4, 2))
	sd := sched.New(m, fleetSchedConfig())
	sd.AddLatency("svc", 0, lat.Batch().NewProcess(0, e.seed))
	tiny := batch
	tiny.Exec.Instructions = 50
	for j := 0; j < jobs; j++ {
		j := j
		sd.Submit(sched.Job{Name: "tiny", New: func() *machine.Process {
			return tiny.NewProcess(uint64(1<<28)+uint64(j%8)<<26, e.seed+int64(j))
		}})
	}
	for i := 0; i < 100*jobs && !sd.Done(); i++ {
		sd.Step()
	}
	_, overhead := stepProbe(e.n(overheadPairs/4), sd.Step, m.RunPeriod)
	return overhead / 1e3
}

// probeFleet fills the sched.*, fleet.*, telemetry.* and slo.* metrics on
// the finished cluster c and returns the control plane's seconds per rep.
func probeFleet(w workload, e *env, tr *tracer, c *fleet.Cluster, wallS float64, m metrics) (controlS float64) {
	nodes := c.Nodes()
	rep := c.Report()
	ticks := float64(rep.Ticks)
	steps := ticks * float64(len(nodes))
	m["sched.steps"] = steps
	// Read the run's own totals before the probes below step the cluster on.
	m["slo.alerts_fired"] = sumNodeCounter(c, "caer_slo_alerts_total")
	for _, n := range nodes {
		m["telemetry.ops"] += float64(n.Registry().SelfOps())
	}
	m["fleet.scrapes"] = float64(len(tr.scrapeNs))
	m["fleet.scrape_us"] = summarize(tr.scrapeNs).Median / 1e3
	m["fleet.tick_us_p50"] = percentile(tr.tickNs, 0.5) / 1e3
	m["fleet.tick_us_p99"] = percentile(tr.tickNs, 0.99) / 1e3

	stepAll := func() {
		for _, n := range nodes {
			n.Sched().Step()
		}
	}
	// Scrapes land on one tick in ScrapePeriod, so the mean, not the
	// median, of the paired differences is the per-tick overhead.
	pairs := e.n(240)
	var tickNs, stepNs float64
	for i := 0; i < pairs; i++ {
		tickNs += loopNs(1, func(int) { c.Tick() })
		stepNs += loopNs(1, func(int) { stepAll() })
	}
	m["fleet.tick_overhead_us"] = (tickNs - stepNs) / float64(pairs) / 1e3
	m["sched.step_overhead_us"] = schedOverhead(w, e, rep.Completed/len(nodes))
	m["sched.step_overhead_us_4k_jobs"] = schedOverhead(w, e, e.n(4000))

	n0 := nodes[0]
	series := telemetry.NewSeries(n0.Registry(), 512)
	series.Sample()
	m["telemetry.series_sample_us"] = loopNs(e.n(2000), func(int) { series.Sample() }) / 1e3
	var buf bytes.Buffer
	m["telemetry.write_prom_us"] = loopNs(e.n(200), func(int) {
		buf.Reset()
		_ = n0.Registry().WritePrometheus(&buf) // a bytes.Buffer write cannot fail
	}) / 1e3
	payload := buf.Bytes()
	m["telemetry.parse_text_us"] = loopNs(e.n(200), func(int) {
		if _, err := telemetry.ParseText(bytes.NewReader(payload)); err != nil {
			panic("benchmark: scrape payload does not parse: " + err.Error())
		}
	}) / 1e3
	if eng := n0.SLO(); eng != nil {
		m["slo.evaluate_us"] = loopNs(e.n(2000), func(int) { eng.Evaluate() }) / 1e3
	}
	telemetryS := (m["fleet.scrapes"]*(m["fleet.scrape_us"]+m["telemetry.parse_text_us"]) +
		steps*m["telemetry.series_sample_us"]) / 1e6
	m["telemetry.busy_share"] = telemetryS / wallS

	return (ticks*m["fleet.tick_overhead_us"] + steps*m["sched.step_overhead_us"]) / 1e6
}

// sumNodeCounter totals a metric family over every node's registry, read
// the way a collector would: rendered and parsed back.
func sumNodeCounter(c *fleet.Cluster, name string) float64 {
	var total float64
	var buf bytes.Buffer
	for _, n := range c.Nodes() {
		buf.Reset()
		if err := n.Registry().WritePrometheus(&buf); err != nil {
			continue
		}
		ms, err := telemetry.ParseText(&buf)
		if err != nil {
			continue
		}
		for _, tm := range ms {
			if tm.Name == name {
				total += tm.Value
			}
		}
	}
	return total
}
