package main

// machine layer: the bare period loop. Its own cost — per slice visited
// and per instruction retired — comes from calibration machines that make
// no memory references; the domain worker pool is timed directly.
//
// Binds to: caer.{NewMachine,MachineConfig,NewProcess,ExecProfile},
// Machine.{Bind,RunPeriod,RunPeriods,SetWorkers,StopWorkers,Cores,Periods,
// ReadCounter,PeriodCycles}, spec.Profile.{NewProcess,Batch}, pmu.Events.

import (
	"fmt"
	"time"

	"caer"
	"caer/internal/pmu"
	"caer/internal/spec"
	wl "caer/internal/workload"
)

const (
	// slicesPerPeriod is machine.Config's default interleaving.
	slicesPerPeriod = 600
	// probePeriods is how many periods a period-cost loop times.
	probePeriods = 400
)

// medianOf times f n times and returns the median duration in nanoseconds.
func medianOf(n int, f func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		f()
		samples[i] = float64(time.Since(t0).Nanoseconds())
	}
	return summarize(samples).Median
}

// pairMachine binds a never-ending copy of lat and batch to a 2-core
// machine: the native co-location shape.
func pairMachine(lat, batch spec.Profile, seed int64) *caer.Machine {
	m := caer.NewMachine(caer.MachineConfig{Cores: 2})
	m.Bind(0, lat.Batch().NewProcess(0, seed))
	m.Bind(1, batch.Batch().NewProcess(1<<28, seed+1))
	return m
}

// calibrate times the period loop with its two children taken away. An
// empty machine gives the cost of a slice visit; a machine whose processes
// all but never reference memory gives, after the slice visits are taken
// off, the cost of retiring one instruction.
func calibrate(e *env) (instrNs, sliceNs float64) {
	const cores = 2
	periods := e.n(probePeriods)
	run := func(m *caer.Machine) float64 {
		m.RunPeriods(10)
		t0 := time.Now()
		m.RunPeriods(periods)
		return float64(time.Since(t0).Nanoseconds())
	}
	sliceNs = run(caer.NewMachine(caer.MachineConfig{Cores: cores})) / float64(periods*cores*slicesPerPeriod)

	exec := caer.ExecProfile{MemFraction: 1e-9, BaseCPI: 0.7}
	m := caer.NewMachine(caer.MachineConfig{Cores: cores})
	for c := 0; c < cores; c++ {
		m.Bind(c, caer.NewProcess("cal", exec, wl.NewStream(uint64(c)<<20, 64, 1, 0), e.seed))
	}
	ns := run(m)
	var instr uint64
	for c := 0; c < cores; c++ {
		instr += m.ReadCounter(c, pmu.EventInstrRetired)
	}
	// The counter includes the ten settling periods.
	perPeriod := float64(instr) / float64(periods+10)
	instrNs = (ns/float64(periods) - cores*slicesPerPeriod*sliceNs) / perPeriod
	if instrNs < 0 {
		instrNs = 0
	}
	return instrNs, sliceNs
}

// machineState is everything the PMU can see of a machine.
func machineState(m *caer.Machine) []uint64 {
	out := []uint64{m.Periods()}
	for c := 0; c < m.Cores(); c++ {
		for _, ev := range pmu.Events() {
			out = append(out, m.ReadCounter(c, ev))
		}
	}
	return out
}

// poolRun steps a 4-domain machine through batches of 32 periods on
// `workers` workers and returns the median batch time and the end state.
func poolRun(seed int64, workers int) (float64, []uint64) {
	mcf, _ := caer.BenchmarkByName("mcf")
	lbm := caer.LBM()
	m := caer.NewMachine(caer.MachineConfig{Cores: 8, Domains: 4})
	for i := 0; i < m.Cores(); i++ {
		p := mcf
		if i%2 == 1 {
			p = lbm
		}
		m.Bind(i, p.Batch().NewProcess(uint64(i)<<26, seed+int64(i)))
	}
	m.SetWorkers(workers)
	defer m.StopWorkers()
	ns := medianOf(5, func() { m.RunPeriods(32) })
	return ns, machineState(m)
}

func equalState(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// probeMachine fills the machine.* metrics. slices is how many core-slices
// the rep's machines stepped through; every one is visited, busy or idle.
func probeMachine(w workload, e *env, sim simStats, slices float64, wallS float64, m metrics, out *repOut) {
	m["machine.periods"] = float64(sim.Periods)
	m["machine.instructions"] = float64(sim.Instructions)

	lat, batch := w.pair(e)
	pm := pairMachine(lat, batch, e.seed)
	pm.RunPeriods(20)
	periods := e.n(probePeriods)
	t0 := time.Now()
	pm.RunPeriods(periods)
	m["machine.period_us"] = float64(time.Since(t0).Nanoseconds()) / float64(periods) / 1e3

	instrNs, sliceNs := calibrate(e)
	m["machine.instr_self_ns"] = instrNs
	m["machine.idle_slice_ns"] = sliceNs
	// A memory reference's time is the generator's and the cache's; the
	// loop's own cost is charged to the instructions that are not one.
	nonMem := float64(sim.Instructions) - m["mem.accesses"]
	m["machine.self_share"] = (nonMem*instrNs + slices*sliceNs) / 1e9 / wallS

	serialNs, serial := poolRun(e.seed, 1)
	for _, k := range []int{2, 4} {
		ns, state := poolRun(e.seed, k)
		m[fmt.Sprintf("machine.pool_speedup_w%d", k)] = serialNs / ns
		out.check(fmt.Sprintf("machine/pool_w%d_identical", k), equalState(serial, state))
	}
}
