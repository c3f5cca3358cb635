package machine

import (
	"math"
	"math/rand"
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

// quieten turns a buildDomains machine into the red-light shape the
// one-pass stepper serves: in every domain the first core runs, the second
// is bound but paused and the rest are unbound, and the last domain's first
// core is paused too, leaving that domain no runnable core.
func quieten(m *Machine) *Machine {
	for i := 0; i < m.Cores(); i++ {
		switch local := m.LocalCore(i); {
		case local == 1:
			m.Core(i).SetPaused(true)
		case local > 1:
			m.Unbind(i)
		}
	}
	lo, _ := m.DomainCores(m.Domains() - 1)
	m.Core(lo).SetPaused(true)
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
	s := machineSnap{now: m.now, periods: m.Periods()}
	for i := 0; i < m.Cores(); i++ {
		c := m.Core(i)
		s.busy = append(s.busy, c.BusyCycles())
		s.idle = append(s.idle, c.IdleCycles())
		s.instr = append(s.instr, m.ReadCounter(i, pmu.EventInstrRetired))
		s.cycles = append(s.cycles, m.ReadCounter(i, pmu.EventCycles))
		var retired uint64
		if p := c.proc; p != nil {
			retired = p.Retired()
		}
		s.retired = append(s.retired, retired)
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
// serially, to the same state. The quiet machine's domains take the
// one-pass path while the others' are sliced.
func TestSharedPoolMatchesSerial(t *testing.T) {
	geometry := []struct {
		domains, perDomain int
		quiet              bool
	}{{2, 2, false}, {2, 4, false}, {1, 2, false}, {3, 3, true}} // 8 units
	for _, workers := range []int{1, 2, 3, 16} {
		label := "workers=" + strconv.Itoa(workers)
		var serial, shared []*Machine
		for _, g := range geometry {
			s, p := buildDomains(t, g.domains, g.perDomain, 1), buildDomains(t, g.domains, g.perDomain, 1)
			if g.quiet {
				s, p = quieten(s), quieten(p)
			}
			serial, shared = append(serial, s), append(shared, p)
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

// TestPoolStepsMostWorkFirst pins the pool's work order over skewed units:
// sliced, one-pass and idle domains, and two twin machines whose units tie.
// After every batch each unit's work is the L1 accesses its step added,
// the order deals the units out by non-increasing work with the idle ones
// last, and tied units keep their index order, also when a unit that was
// busy ahead of an idle one falls idle beside it.
func TestPoolStepsMostWorkFirst(t *testing.T) {
	geometry := []struct {
		domains, perDomain int
		quiet              bool
	}{{2, 2, false}, {2, 4, false}, {1, 2, false}, {3, 3, true}, {2, 2, false}} // 10 units; 7 idle, 0~8 and 1~9 twins
	for _, workers := range []int{2, 3, 16} {
		label := "workers=" + strconv.Itoa(workers)
		var ms []*Machine
		for _, g := range geometry {
			m := buildDomains(t, g.domains, g.perDomain, 1)
			if g.quiet {
				m = quieten(m)
			}
			ms = append(ms, m)
		}
		pool := NewPool(workers, ms...)
		t.Cleanup(pool.Stop)
		busyTies := 0
		l1 := func(u unit) (n uint64) { // every reference passes the domain's L1s
			h := u.m.DomainHierarchy(u.d)
			for c := 0; c < h.Cores(); c++ {
				n += h.L1(c).Stats().Accesses
			}
			return n
		}
		pause := func(m *Machine, paused bool) {
			for i := 0; i < m.Cores(); i++ {
				m.Core(i).SetPaused(paused)
			}
		}
		batch := func(when string, n, wantIdle int) {
			t.Helper()
			before := make([]uint64, len(pool.units))
			for k, u := range pool.units {
				before[k] = l1(u)
			}
			pool.RunPeriods(n)
			seen := make([]bool, len(pool.units))
			idle := 0
			for i, k := range pool.order {
				if seen[k] {
					t.Fatalf("%s %s: order %v repeats unit %d", label, when, pool.order, k)
				}
				seen[k] = true
				if got, want := pool.work[k], l1(pool.units[k])-before[k]; got != want {
					t.Fatalf("%s %s: unit %d work = %d, want the %d L1 accesses its step added", label, when, k, got, want)
				}
				if pool.work[k] == 0 {
					idle++
				} else if idle > 0 {
					t.Fatalf("%s %s: busy unit %d dealt after an idle one: order %v work %v", label, when, k, pool.order, pool.work)
				}
				if i == 0 {
					continue
				}
				prev := pool.order[i-1]
				if pool.work[prev] < pool.work[k] {
					t.Fatalf("%s %s: order %v not non-increasing in work %v", label, when, pool.order, pool.work)
				}
				if pool.work[prev] == pool.work[k] {
					if prev > k {
						t.Fatalf("%s %s: tied units %d and %d out of index order: %v", label, when, prev, k, pool.order)
					}
					if pool.work[k] > 0 {
						busyTies++
					}
				}
			}
			if idle != wantIdle {
				t.Fatalf("%s %s: %d idle units, want %d (work %v)", label, when, idle, wantIdle, pool.work)
			}
		}
		for p := 0; p < 6; p++ {
			batch("period "+strconv.Itoa(p), 1, 1)
		}
		batch("RunPeriods(3)", 3, 1)
		pause(ms[4], true) // units 8 and 9, dealt ahead of 7, fall idle beside it
		batch("twin paused", 1, 3)
		pause(ms[0], true)
		batch("both twins paused", 2, 5)
		pause(ms[0], false)
		pause(ms[4], false)
		batch("twins resumed", 1, 1)
		if busyTies == 0 {
			t.Fatalf("%s: the twin machines' units never tied", label)
		}
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
// documentation of the stepping order stepDomain must reproduce. It slices
// every core through refRunSlice, so the loop under test is checked against
// the historical one and not against itself.
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
			refRunSlice(m.cores[(i+offset)%len(m.cores)], sliceStart, budget)
		}
	}
	m.now = start + m.period
	m.periods++
}

// refRunSlice is runSlice over refRetire.
func refRunSlice(c *Core, at, budget uint64) {
	if !c.runnable() {
		c.idle += budget
		return
	}
	effective := budget / uint64(c.freqDiv)
	if effective == 0 {
		c.idle += budget
		return
	}
	if c.debt >= effective {
		c.debt -= effective
		c.busy += budget
		return
	}
	used, _ := refRetire(c, at, c.debt, effective)
	c.debt = 0
	if used > effective {
		c.debt = used - effective
		used = effective
	}
	c.busy += used * uint64(c.freqDiv)
	if slack := budget - used*uint64(c.freqDiv); slack > 0 {
		c.idle += slack
	}
}

// refRetire is the historical retire loop: it steps the process's and the
// core's fields once per instruction and takes the whole-cycle part through
// uint64. Core.retire must reproduce it bit for bit.
func refRetire(c *Core, at, used, end uint64) (ended, issued uint64) {
	p := c.proc
	for used < end && !p.done {
		p.memAcc += p.prof.MemFraction
		var cost uint64
		if p.memAcc >= 1 {
			p.memAcc -= 1
			a := p.gen.Next(p.rng)
			res := c.hier.Access(c.local, a.Addr, a.Write, at+used)
			cost = res.Latency
		} else {
			p.cpiAcc += p.prof.BaseCPI
			cost = uint64(p.cpiAcc)
			p.cpiAcc -= float64(cost)
		}
		used += cost
		p.retired++
		c.instrRet++
		if p.prof.Instructions > 0 && p.retired >= p.prof.Instructions {
			p.done = true
			issued = used - cost
		}
	}
	return used, issued
}

// scriptReader hands out a script's bytes; past the end it reads zeros.
type scriptReader struct {
	b []byte
	i int
}

func (r *scriptReader) next() int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1])
}

// scriptCover counts what a script exercised, at period boundaries, by the
// number of runnable cores a domain had.
type scriptCover struct {
	idle, lone, loneDiv, contended int // domain-periods with 0, 1 full-speed, 1 divided, ≥ 2 runnable
	carried                        int // lone full-speed periods entered with debt
	sliceEnd                       int // lone completions whose busy time ended at a slice end before the period's
}

// runScript decodes a machine geometry and a sequence of periods and
// between-period operations (pause/unpause, divisor, bind, move, unbind,
// Relaunch) from data, and drives two twins through it: one steps with
// RunPeriod/RunPeriods, which take the one-pass path in uncontended
// domains, and the other with refRunPeriod, which slices every core. After
// every step the twins must agree bit for bit.
func runScript(t testing.TB, data []byte) scriptCover {
	t.Helper()
	r := &scriptReader{b: data}
	cfg := smallConfig(1 + r.next()%4)
	cfg.Domains = 1 + r.next()%3
	cfg.SlicesPerPeriod = 10 + r.next()%20
	cfg.PeriodCycles = 1000 + uint64(r.next())*8 // slices of 34–304 cycles, with remainders
	cfg.Hierarchy.Memory.ServiceCycles = uint64(r.next()%3) * 15
	fast, ref := New(cfg), New(cfg)
	total, period := fast.Cores(), fast.period

	var procs [][2]*Process // fast's and ref's copy of each process
	spawn := func() int {
		prof := ExecProfile{
			MemFraction:  []float64{0.02, 0.3, 0.6, 1}[r.next()%4],
			BaseCPI:      []float64{0.3, 0.7, 1, 1.5, 40, 150, 333.3}[r.next()%7],
			Instructions: []uint64{0, 0, 5, 20, 90}[r.next()%5],
		}
		ws := []uint64{8, 48, 300, 4096}[r.next()%4]
		stream, k := r.next()%2 == 0, len(procs)
		base := uint64(k+1) << 20
		mk := func() *Process {
			gen := workload.Generator(workload.NewUniform(base, ws, 0.2))
			if stream {
				gen = workload.NewStream(base, ws, 1, 0.2)
			}
			return NewProcess("s", prof, gen, int64(k))
		}
		procs = append(procs, [2]*Process{mk(), mk()})
		return k
	}
	bind := func(core, k int) {
		for i := 0; i < total; i++ { // a process runs on one core at a time
			if fast.Core(i).proc == procs[k][0] {
				fast.Unbind(i)
				ref.Unbind(i)
			}
		}
		fast.Bind(core, procs[k][0])
		ref.Bind(core, procs[k][1])
	}
	for i := 0; i < total; i++ {
		if r.next()%3 != 0 {
			bind(i, spawn())
		}
	}

	var cov scriptCover
	step := func(n int) {
		type lone struct {
			c    *Core
			busy uint64
		}
		var lones []lone // lone full-speed cores of a one-period step
		for d := 0; d < fast.Domains(); d++ {
			lo, hi := fast.DomainCores(d)
			var run []*Core
			for _, c := range fast.cores[lo:hi] {
				if c.runnable() {
					run = append(run, c)
				}
			}
			switch {
			case len(run) == 0:
				cov.idle++
			case len(run) > 1:
				cov.contended++
			case run[0].freqDiv > 1:
				cov.loneDiv++
			default:
				cov.lone++
				if run[0].debt > 0 {
					cov.carried++
				}
				if n == 1 {
					lones = append(lones, lone{run[0], run[0].busy})
				}
			}
		}
		if n == 1 {
			fast.RunPeriod()
		} else {
			fast.RunPeriods(n)
		}
		for i := 0; i < n; i++ {
			refRunPeriod(ref)
		}
		for _, l := range lones {
			if l.c.proc.done && l.c.debt > 0 && l.c.busy-l.busy < period {
				cov.sliceEnd++
			}
		}
		diffTwins(t, fast, ref, procs)
	}
	for ops := 0; r.i < len(r.b) && ops < 128; ops++ {
		op, core := r.next()%16, r.next()%total
		switch c, p := fast.Core(core), fast.Core(core).proc; {
		case op < 7:
			step(1)
		case op < 9:
			step(1 + r.next()%4)
		case op < 11:
			c.SetPaused(!c.paused)
			ref.Core(core).SetPaused(c.paused)
		case op == 11:
			div := 1 + r.next()%3
			c.SetFreqDivisor(div)
			ref.Core(core).SetFreqDivisor(div)
		case op == 12:
			bind(core, spawn())
		case op == 13 && len(procs) > 0:
			bind(core, r.next()%len(procs))
		case op == 14:
			fast.Unbind(core)
			ref.Unbind(core)
		case op == 15 && p != nil:
			p.Relaunch()
			ref.Core(core).proc.Relaunch()
		}
	}
	step(1)
	return cov
}

// diffTwins fails unless the two machines of a script agree bit for bit:
// the clock, every core's accounting and carried debt, every process's
// retirement and accumulators, and every counter of every hierarchy.
func diffTwins(t testing.TB, fast, ref *Machine, procs [][2]*Process) {
	t.Helper()
	at := "period " + strconv.FormatUint(ref.Periods(), 10)
	if fast.now != ref.now || fast.Periods() != ref.Periods() {
		t.Fatalf("%s: clock diverged: now %d vs %d, periods %d vs %d",
			at, fast.now, ref.now, fast.Periods(), ref.Periods())
	}
	for i := 0; i < fast.Cores(); i++ {
		f, r := fast.Core(i), ref.Core(i)
		if got, want := [4]uint64{f.busy, f.idle, f.instrRet, f.debt}, [4]uint64{r.busy, r.idle, r.instrRet, r.debt}; got != want {
			t.Fatalf("%s: core %d busy/idle/instrRet/debt = %v, sliced reference %v", at, i, got, want)
		}
	}
	for k, pp := range procs {
		f, r := pp[0], pp[1]
		if f.retired != r.retired || f.done != r.done ||
			math.Float64bits(f.memAcc) != math.Float64bits(r.memAcc) ||
			math.Float64bits(f.cpiAcc) != math.Float64bits(r.cpiAcc) {
			t.Fatalf("%s: process %d retired/done/memAcc/cpiAcc = %d %v %v %v, sliced reference %d %v %v %v",
				at, k, f.retired, f.done, f.memAcc, f.cpiAcc, r.retired, r.done, r.memAcc, r.cpiAcc)
		}
	}
	for d := 0; d < fast.Domains(); d++ {
		f, r := fast.DomainHierarchy(d), ref.DomainHierarchy(d)
		if f.L3().Stats() != r.L3().Stats() {
			t.Fatalf("%s: domain %d L3 %+v, sliced reference L3 %+v", at, d, f.L3().Stats(), r.L3().Stats())
		}
		for c := 0; c < f.Cores(); c++ {
			if f.L1(c).Stats() != r.L1(c).Stats() || f.L2(c).Stats() != r.L2(c).Stats() ||
				f.LLCMisses(c) != r.LLCMisses(c) || f.LLCAccesses(c) != r.LLCAccesses(c) || f.L2Misses(c) != r.L2Misses(c) {
				t.Fatalf("%s: domain %d core %d private-cache or LLC counters diverged from the sliced reference", at, d, c)
			}
		}
	}
}

// machineScripts returns n seeded random scripts: the lockstep test's
// inputs and the fuzzer's seed corpus.
func machineScripts(n int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, 160+rng.Intn(160))
		rng.Read(out[i])
	}
	return out
}

// TestUncontendedPeriodMatchesSliced pins the one-pass stepping of
// uncontended domains against the sliced reference over seeded scripts,
// and that the scripts reach every case: idle, lone, lone-under-divisor and
// contended domains, debt carried into a one-pass period, and completions
// whose busy time the slice-end rule decides.
func TestUncontendedPeriodMatchesSliced(t *testing.T) {
	var cov scriptCover
	for i, s := range machineScripts(60) {
		t.Run("script"+strconv.Itoa(i), func(t *testing.T) {
			c := runScript(t, s)
			cov.idle += c.idle
			cov.lone += c.lone
			cov.loneDiv += c.loneDiv
			cov.contended += c.contended
			cov.carried += c.carried
			cov.sliceEnd += c.sliceEnd
		})
	}
	t.Logf("coverage %+v", cov)
	if cov.idle == 0 || cov.lone == 0 || cov.loneDiv == 0 || cov.contended == 0 || cov.carried == 0 || cov.sliceEnd == 0 {
		t.Fatalf("scripts missed a case: %+v", cov)
	}
}

// FuzzMachinePeriod runs fuzzer-chosen scripts through the same lockstep
// harness as TestUncontendedPeriodMatchesSliced.
func FuzzMachinePeriod(f *testing.F) {
	for _, s := range machineScripts(8) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runScript(t, data) })
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
// the serial stepper, the private pool and a pool four machines share, on
// sliced and one-pass domains (caer-vet guards the source; this guards the
// runtime behavior).
func TestRunPeriodAllocFree(t *testing.T) {
	serial := buildDomains(t, 2, 2, 1)
	quiet := quieten(buildDomains(t, 2, 2, 1))
	par := buildDomains(t, 2, 2, 2)
	shared := NewPool(2, buildDomains(t, 2, 2, 1), quieten(buildDomains(t, 2, 2, 1)),
		buildDomains(t, 2, 4, 1), quieten(buildDomains(t, 2, 4, 1)))
	t.Cleanup(shared.Stop)
	serial.RunPeriods(3)
	quiet.RunPeriods(3)
	par.RunPeriods(3)
	shared.RunPeriods(3)
	if n := testing.AllocsPerRun(5, func() { shared.RunPeriods(1) }); n != 0 {
		t.Fatalf("shared-pool RunPeriods allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5, serial.RunPeriod); n != 0 {
		t.Fatalf("serial RunPeriod allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5, quiet.RunPeriod); n != 0 {
		t.Fatalf("one-pass RunPeriod allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(5, par.RunPeriod); n != 0 {
		t.Fatalf("pooled RunPeriod allocates %v/op, want 0", n)
	}
}
