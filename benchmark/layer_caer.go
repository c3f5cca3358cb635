package main

// pmu, comm and caer layers: the per-period control loop of one machine —
// probe, publish, detect, respond — each stage alone, and the whole loop
// as Runtime.Step minus the bare period it contains.
//
// Binds to: pmu.{New,NewSampler,Source,Event,Event*}, Sampler.Probe,
// comm.{NewTable,Role*}, Table.{Register,BumpPeriod}, Slot.{Publish,
// WindowMean}, icaer.{NewEngine,NewRuleDetector,NewRedLightGreenLight,
// DefaultConfig,WithSource}, Engine.Tick, caer.NewRuntime,
// Runtime.{AddLatency,AddBatch,Step}.

import (
	"time"

	"caer"
	icaer "caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/pmu"
)

// countingSource is the caer.WithSource seam: it counts counter reads on
// their way from the runtime's PMUs to the machine.
type countingSource struct {
	m     *caer.Machine
	reads uint64
}

func (s *countingSource) ReadCounter(core int, ev pmu.Event) uint64 {
	s.reads++
	return s.m.ReadCounter(core, ev)
}

// loopNs times n calls of f.
func loopNs(n int, f func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// stepProbe alternates a full step and the bare period it contains on the
// same live object, so both see the same machine state. It returns the
// step timings and the median of the paired differences, all in
// nanoseconds.
func stepProbe(pairs int, step, bare func()) (steps []float64, overheadNs float64) {
	diffs := make([]float64, pairs)
	steps = make([]float64, pairs)
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		step()
		t1 := time.Now()
		bare()
		t2 := time.Now()
		steps[i] = float64(t1.Sub(t0).Nanoseconds())
		diffs[i] = steps[i] - float64(t2.Sub(t1).Nanoseconds())
	}
	return steps, summarize(diffs).Median
}

// overheadPairs is how many step/bare pairs an overhead probe alternates.
const overheadPairs = 20_000

// tinyPeriods is a machine whose period is 600 cycles in 6 slices: a
// hundredth of the default, so a control loop of a microsecond shows.
func tinyPeriods(cores, domains int) caer.MachineConfig {
	return caer.MachineConfig{Cores: cores, Domains: domains, PeriodCycles: 600, SlicesPerPeriod: 6}
}

// probeRuntime deploys the workload's pair under the rule heuristic on a
// fresh machine, reading its counters through a counting source, and
// steps it past start-up.
func probeRuntime(w workload, e *env, cfg caer.MachineConfig) (*caer.Machine, *caer.Runtime, *countingSource) {
	lat, batch := w.pair(e)
	m := caer.NewMachine(cfg)
	src := &countingSource{m: m}
	rt := caer.NewRuntime(m, caer.HeuristicRule, caer.DefaultConfig(), icaer.WithSource(src))
	rt.AddLatency("lat", 0, lat.Batch().NewProcess(0, e.seed))
	rt.AddBatch("batch", 1, batch.Batch().NewProcess(1<<28, e.seed+1))
	for i := 0; i < 50; i++ {
		rt.Step()
	}
	return m, rt, src
}

// probeCaer fills the pmu.*, comm.* and caer.* unit costs. The counts come
// from the exported telemetry counters (counterSources in layer_fleet.go).
func probeCaer(w workload, e *env, m metrics, out *repOut) {
	n := e.n(1 << 18)
	cfg := icaer.DefaultConfig()
	lat, batch := w.pair(e)

	pm := pairMachine(lat, batch, e.seed)
	pm.RunPeriod()
	sampler := pmu.NewSampler(pmu.New(pm, 0), []pmu.Event{
		pmu.EventLLCMisses, pmu.EventLLCAccesses, pmu.EventInstrRetired, pmu.EventCycles,
	}, false)
	m["pmu.probe_ns"] = loopNs(n, func(int) { sampler.Probe() })

	table := comm.NewTable(cfg.WindowSize)
	latSlot := table.Register("lat", comm.RoleLatency)
	own := table.Register("batch", comm.RoleBatch)
	m["comm.publish_ns"] = loopNs(n, func(i int) { latSlot.Publish(float64(i & 255)) })
	var acc float64
	m["comm.window_mean_ns"] = loopNs(n, func(int) { acc += latSlot.WindowMean() })
	sink += uint64(acc)

	eng := icaer.NewEngine(icaer.NewRuleDetector(cfg), icaer.NewRedLightGreenLight(cfg), own, []*comm.Slot{latSlot})
	m["caer.engine_tick_ns"] = loopNs(n, func(i int) {
		table.BumpPeriod()
		latSlot.Publish(float64((i * 7) & 255))
		eng.Tick(float64(i & 255))
	})

	// Full-size steps for the latency a caller of Runtime.Step sees.
	rm, rt, src := probeRuntime(w, e, caer.MachineConfig{Cores: 2})
	steps := make([]float64, e.n(probePeriods))
	for i := range steps {
		steps[i] = loopNs(1, func(int) { rt.Step() })
	}
	m["caer.step_us_p50"] = percentile(steps, 0.5) / 1e3
	m["caer.step_us_p99"] = percentile(steps, 0.99) / 1e3

	// The control loop's own cost does not depend on the period's length,
	// so it is resolved against a period short enough not to drown it.
	tm, trt, _ := probeRuntime(w, e, tinyPeriods(2, 1))
	_, overhead := stepProbe(e.n(overheadPairs), trt.Step, tm.RunPeriod)
	m["caer.step_overhead_us"] = overhead / 1e3

	// Counter conservation between pmu and mem: what the PMU source reads
	// as LLC misses is what the shared cache counted as misses.
	var fromPMU uint64
	for core := 0; core < rm.Cores(); core++ {
		fromPMU += src.ReadCounter(core, pmu.EventLLCMisses)
	}
	out.check("pmu/llc_misses==mem", src.reads > 0 && fromPMU == rm.Hierarchy().L3().Stats().Misses)
}
