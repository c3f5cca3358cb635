package machine

import (
	"strconv"
	"testing"

	"caer/internal/pmu"
	"caer/internal/workload"
)

// buildDomains constructs a multi-domain machine with a deterministic mix of
// cache-hungry and compute-bound processes on every core.
func buildDomains(t *testing.T, domains, perDomain, workers int) *Machine {
	t.Helper()
	m := New(Config{Cores: domains * perDomain, Domains: domains})
	m.SetWorkers(workers)
	t.Cleanup(m.StopWorkers)
	for i := 0; i < m.Cores(); i++ {
		var gen workload.Generator
		var prof ExecProfile
		if i%2 == 0 {
			gen = workload.NewStream(uint64(i)<<20, 1<<15, 1, 0.3)
			prof = ExecProfile{MemFraction: 0.45, BaseCPI: 1.0}
		} else {
			gen = workload.NewUniform(uint64(i)<<20, 1<<12, 0.1)
			prof = ExecProfile{MemFraction: 0.15, BaseCPI: 0.8}
		}
		m.Bind(i, NewProcess("p", prof, gen, int64(1000+i)))
	}
	return m
}

// snapshot captures every externally observable piece of machine state.
type machineSnap struct {
	busy, idle, instr, cycles []uint64
	retired                   []uint64
	llcMiss, llcAcc, l2Miss   []uint64
	now, periods              uint64
}

func snap(m *Machine) machineSnap {
	s := machineSnap{now: m.Now(), periods: m.Periods()}
	for i := 0; i < m.Cores(); i++ {
		c := m.Core(i)
		s.busy = append(s.busy, c.BusyCycles())
		s.idle = append(s.idle, c.IdleCycles())
		s.instr = append(s.instr, m.ReadCounter(i, pmu.EventInstrRetired))
		s.cycles = append(s.cycles, m.ReadCounter(i, pmu.EventCycles))
		s.retired = append(s.retired, c.Process().Retired())
		s.llcMiss = append(s.llcMiss, m.ReadCounter(i, pmu.EventLLCMisses))
		s.llcAcc = append(s.llcAcc, m.ReadCounter(i, pmu.EventLLCAccesses))
		s.l2Miss = append(s.l2Miss, m.ReadCounter(i, pmu.EventL2Misses))
	}
	return s
}

func diffSnap(t *testing.T, want, got machineSnap, label string) {
	t.Helper()
	if want.now != got.now || want.periods != got.periods {
		t.Fatalf("%s: clock diverged: now %d vs %d, periods %d vs %d",
			label, want.now, got.now, want.periods, got.periods)
	}
	for i := range want.busy {
		if want.busy[i] != got.busy[i] || want.idle[i] != got.idle[i] ||
			want.instr[i] != got.instr[i] || want.cycles[i] != got.cycles[i] ||
			want.retired[i] != got.retired[i] || want.llcMiss[i] != got.llcMiss[i] ||
			want.llcAcc[i] != got.llcAcc[i] || want.l2Miss[i] != got.l2Miss[i] {
			t.Fatalf("%s: core %d state diverged:\n serial  %+v\n variant %+v", label, i,
				[8]uint64{want.busy[i], want.idle[i], want.instr[i], want.cycles[i], want.retired[i], want.llcMiss[i], want.llcAcc[i], want.l2Miss[i]},
				[8]uint64{got.busy[i], got.idle[i], got.instr[i], got.cycles[i], got.retired[i], got.llcMiss[i], got.llcAcc[i], got.l2Miss[i]})
		}
	}
}

// TestParallelDomainsMatchSerial pins the tentpole determinism contract:
// stepping independent LLC domains on a worker pool yields bit-identical
// machine state to the serial order, period by period.
func TestParallelDomainsMatchSerial(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		serial := buildDomains(t, 4, 2, 1)
		par := buildDomains(t, 4, 2, workers)
		if par.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", par.Workers(), workers)
		}
		for p := 0; p < 40; p++ {
			serial.RunPeriod()
			par.RunPeriod()
			diffSnap(t, snap(serial), snap(par), "workers="+string(rune('0'+workers)))
		}
	}
}

// TestSharedPoolMatchesSerial pins the same contract for a pool several
// machines share: machines of different geometry stepped together through
// one cursor stay in lockstep with twins stepped alone by the plain loop,
// after every period and after a multi-period batch, with fewer workers
// than units, as many, and more; and a stopped pool keeps stepping,
// serially, to the same state.
func TestSharedPoolMatchesSerial(t *testing.T) {
	geometry := [][2]int{{2, 2}, {2, 4}, {1, 2}} // domains, cores per domain: 5 units
	for _, workers := range []int{1, 2, 3, 16} {
		label := "workers=" + strconv.Itoa(workers)
		var serial, shared []*Machine
		for _, g := range geometry {
			serial = append(serial, buildDomains(t, g[0], g[1], 1))
			shared = append(shared, buildDomains(t, g[0], g[1], 1))
		}
		pool := NewPool(workers, shared...)
		t.Cleanup(pool.Stop)
		compare := func(when string) {
			t.Helper()
			for k := range serial {
				diffSnap(t, snap(serial[k]), snap(shared[k]), label+" machine "+strconv.Itoa(k)+" "+when)
			}
		}
		for p := 0; p < 12; p++ {
			for _, m := range serial {
				m.RunPeriod()
			}
			pool.RunPeriods(1)
			compare("period " + strconv.Itoa(p))
		}
		for _, m := range serial {
			m.RunPeriods(7)
		}
		pool.RunPeriods(7)
		compare("after RunPeriods(7)")

		// A member steps alone with the plain loop (Scheduler.Step on one
		// fleet node); any member's StopWorkers stops the pool, idempotently.
		for k := range shared {
			serial[k].RunPeriod()
			shared[k].RunPeriod()
		}
		compare("members stepped alone")
		shared[2].StopWorkers()
		shared[0].StopWorkers()
		for k, m := range shared {
			if m.Workers() != 1 {
				t.Fatalf("%s: machine %d Workers() after stop = %d, want 1", label, k, m.Workers())
			}
		}
		for _, m := range serial {
			m.RunPeriods(3)
		}
		pool.RunPeriods(3)
		compare("after stop")
	}
}

// TestBatchedPeriodsMatchSingle pins that one RunPeriods(n) dispatch equals
// n RunPeriod calls, serially and on the pool.
func TestBatchedPeriodsMatchSingle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		single := buildDomains(t, 2, 2, workers)
		batched := buildDomains(t, 2, 2, workers)
		for p := 0; p < 30; p++ {
			single.RunPeriod()
		}
		batched.RunPeriods(30)
		diffSnap(t, snap(single), snap(batched), "batched")
	}
}

// TestSingleDomainRotation pins the serial single-domain stepping against a
// hand-rolled reference of the historical RunPeriod loop (global core order
// rotated every slice), so refactors of stepDomain can't silently change
// the contention interleaving.
func TestSingleDomainRotation(t *testing.T) {
	m := buildDomains(t, 1, 4, 1)
	ref := buildDomains(t, 1, 4, 1)
	for p := 0; p < 10; p++ {
		m.RunPeriod()
		refRunPeriod(ref)
		diffSnap(t, snap(ref), snap(m), "rotation")
	}
}

// refRunPeriod is the pre-refactor period loop, kept as executable
// documentation of the stepping order stepDomain must reproduce.
func refRunPeriod(m *Machine) {
	sliceLen := m.period / uint64(m.slices)
	rem := m.period - sliceLen*uint64(m.slices)
	start := m.now
	for s := 0; s < m.slices; s++ {
		budget := sliceLen
		if s == m.slices-1 {
			budget += rem
		}
		sliceStart := start + uint64(s)*sliceLen
		offset := (int(m.periods)*m.slices + s) % len(m.cores)
		for i := range m.cores {
			m.runSlice(m.cores[(i+offset)%len(m.cores)], sliceStart, budget)
		}
	}
	m.now = start + m.period
	m.periods++
}

// TestStopWorkersIdempotent exercises pool lifecycle edges.
func TestStopWorkersIdempotent(t *testing.T) {
	m := buildDomains(t, 2, 2, 4)
	m.RunPeriod()
	m.StopWorkers()
	m.StopWorkers()
	m.RunPeriod() // serial path after stop
	m.SetWorkers(2)
	m.SetWorkers(2) // no-op resize
	m.RunPeriod()
	m.StopWorkers()
	if m.Workers() != 1 {
		t.Fatalf("Workers() after stop = %d, want 1", m.Workers())
	}
}

// TestRunPeriodAllocFree pins the hot loop's zero-allocation contract for
// the serial stepper, the private pool and a pool four machines share
// (caer-vet guards the source; this guards the runtime behavior).
func TestRunPeriodAllocFree(t *testing.T) {
	serial := buildDomains(t, 2, 2, 1)
	par := buildDomains(t, 2, 2, 2)
	shared := NewPool(2, buildDomains(t, 2, 2, 1), buildDomains(t, 2, 2, 1),
		buildDomains(t, 2, 4, 1), buildDomains(t, 2, 4, 1))
	t.Cleanup(shared.Stop)
	serial.RunPeriods(3)
	par.RunPeriods(3)
	shared.RunPeriods(3)
	if n := testing.AllocsPerRun(5, func() { shared.RunPeriods(1) }); n != 0 {
		t.Fatalf("shared-pool RunPeriods allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5, serial.RunPeriod); n != 0 {
		t.Fatalf("serial RunPeriod allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5, par.RunPeriod); n != 0 {
		t.Fatalf("pooled RunPeriod allocates %v/op, want 0", n)
	}
}
