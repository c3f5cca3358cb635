// Package machine models a multicore CPU executing synthetic workloads at
// period granularity. It stands in for the paper's Intel Core i7 920
// testbed: each core runs one application process over the shared memory
// hierarchy of internal/mem, and a scaled "1 ms" period (60,000 cycles by
// default) is the unit at which the CAER runtime probes counters and applies
// throttling directives. The period is sized so that the shared cache's
// refill time constant spans a few periods, as on the paper's hardware.
//
// Within a period, the runnable cores of an LLC domain are interleaved in
// small time slices so that their reference streams contend in the shared
// L3 the way truly parallel cores do. A domain with at most one runnable
// core has nothing to interleave: its lone core runs the whole period in
// one pass, with the same result as the sliced loop (see stepUncontended).
//
// A machine may be split into several LLC domains (Config.Domains), each a
// contiguous block of cores over its own hierarchy instance — the
// multi-socket shape the contention-aware placement subsystem
// (internal/sched) schedules over. Cores only contend within their domain.
//
// The machine implements pmu.Source; the CAER runtime reads counters only
// through that interface.
package machine

import (
	"fmt"
	"math/rand"

	"caer/internal/mem"
	"caer/internal/pmu"
	"caer/internal/workload"
)

// ExecProfile describes how a process turns instructions into memory
// references and compute cycles. These are the per-benchmark execution
// parameters (the rest of a benchmark's identity is its Generator).
type ExecProfile struct {
	// MemFraction is the fraction of instructions that reference memory.
	// Must be in (0, 1].
	MemFraction float64
	// BaseCPI is the cycles consumed by a non-memory instruction (pipeline
	// ILP folded in). Must be positive, finite and below 2⁵³.
	BaseCPI float64
	// Instructions is the total instruction count of one run to completion;
	// 0 means the process never completes on its own (pure batch service).
	Instructions uint64
}

func (p ExecProfile) validate() error {
	if !(p.MemFraction > 0 && p.MemFraction <= 1) {
		return fmt.Errorf("machine: MemFraction %v out of (0,1]", p.MemFraction)
	}
	// The upper bound keeps every whole-cycle part retire takes exact and
	// within int64, and rejects NaN and +Inf with it.
	if !(p.BaseCPI > 0 && p.BaseCPI < 1<<53) {
		return fmt.Errorf("machine: BaseCPI %v out of (0,2^53)", p.BaseCPI)
	}
	return nil
}

// Process is one application: an execution profile plus a reference
// generator, bound to a core.
type Process struct {
	prof    ExecProfile
	gen     workload.Generator
	rng     *rand.Rand
	seed    int64
	retired uint64
	memAcc  float64 // fractional accumulator deciding which instrs are refs
	cpiAcc  float64 // fractional accumulator of compute cycles
	done    bool
}

// NewProcess constructs a process. seed fixes all stochastic choices. The
// name labels the process at the call site only: nothing reads it back, so
// the process does not keep it.
func NewProcess(name string, prof ExecProfile, gen workload.Generator, seed int64) *Process {
	if err := prof.validate(); err != nil {
		panic(err.Error())
	}
	if gen == nil {
		panic("machine: process needs a generator")
	}
	return &Process{prof: prof, gen: gen, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Done reports whether the process has retired all its instructions.
func (p *Process) Done() bool { return p.done }

// Retired returns instructions retired in the current run.
func (p *Process) Retired() uint64 { return p.retired }

// Relaunch restarts a completed process from scratch: generator rewound,
// RNG reseeded, retirement reset. The fleet's open-loop services call it
// once per completed request.
func (p *Process) Relaunch() {
	workload.Reset(p.gen)
	p.rng.Seed(p.seed) // the state rand.New(rand.NewSource(p.seed)) builds
	p.retired = 0
	p.memAcc = 0
	p.cpiAcc = 0
	p.done = false
}

// Core is one processor core: it executes at most one process and carries
// the running/idle cycle accounting of the paper's Equation 1.
type Core struct {
	hier     *mem.Hierarchy // the owning domain's memory system
	local    int            // index within hier (core number % perDomain), cached off the access path
	proc     *Process
	paused   bool
	freqDiv  int // DVFS extension: 1 = full speed, k = 1/k effective cycles
	busy     uint64
	idle     uint64
	instrRet uint64 // cumulative, survives relaunches (PMU counter)
	// debt is the stall carried over from an instruction that overran its
	// slice. It belongs to the core, not the process: when a process
	// completes on an overrunning instruction the overrun stays here, and
	// the core's next process — a relaunched request, or the next job bound
	// to the core — pays it as stall before its first instruction. Every
	// golden depends on that, so correcting it is a re-baselining change.
	debt uint64
}

// runnable reports whether the core executes this period: it has a bound
// process that has not completed, and it is not paused. Neither changes
// inside a period except a process completing, so a core that is not
// runnable at a period boundary idles through the whole period.
func (c *Core) runnable() bool { return c.proc != nil && !c.proc.done && !c.paused }

// SetPaused throttles (true) or releases (false) the core for subsequent
// periods. This is the mechanism behind the red-light/green-light and
// soft-locking responses.
func (c *Core) SetPaused(p bool) { c.paused = p }

// SetFreqDivisor sets the DVFS-style frequency divisor (>=1). A divisor of
// k gives the core 1/k of the period's cycles, modelling per-core dynamic
// frequency scaling as an alternative response (paper §7, Herdrich et al.).
func (c *Core) SetFreqDivisor(k int) {
	if k < 1 {
		panic(fmt.Sprintf("machine: frequency divisor %d must be >= 1", k))
	}
	c.freqDiv = k
}

// BusyCycles returns cycles spent executing (R_i in Equation 1).
//
//caer:allow reach the per-core cycle account (ROADMAP.md direction 8) is to be its reader
func (c *Core) BusyCycles() uint64 { return c.busy }

// IdleCycles returns cycles spent idle or throttled (I_i in Equation 1).
//
//caer:allow reach the per-core cycle account (ROADMAP.md direction 8) is to be its reader
func (c *Core) IdleCycles() uint64 { return c.idle }

// Utilization returns R/(R+I) for this core, or 0 before any period.
func (c *Core) Utilization() float64 {
	t := c.busy + c.idle
	if t == 0 {
		return 0
	}
	return float64(c.busy) / float64(t)
}

// Config describes a machine.
type Config struct {
	// Hierarchy configures the memory system; zero value uses
	// mem.DefaultHierarchyConfig for the per-domain core count. With
	// Domains > 1 it acts as the per-domain template and its Cores field,
	// if set, must equal Cores/Domains.
	Hierarchy mem.HierarchyConfig
	// Cores is the total core count when Hierarchy is zero.
	Cores int
	// Domains splits the cores into this many LLC domains (sockets /
	// L3 slices). Each domain owns a contiguous block of Cores/Domains
	// cores and its own mem.Hierarchy — private caches, shared L3, and
	// memory channel — so cross-domain processes never contend. Default 1,
	// the paper's single-socket testbed.
	Domains int
	// PeriodCycles is the scaled "1 ms" sampling period. Default 60000.
	PeriodCycles uint64
	// SlicesPerPeriod controls intra-period interleaving granularity.
	// Default 600 (100-cycle slices): fine enough that concurrent cores'
	// memory-channel reservations interleave realistically, since within a
	// slice cores are simulated sequentially over the same wall-clock
	// window. It applies to domains with two or more runnable cores and to
	// a lone core under a frequency divisor; a lone full-speed core runs
	// its period in one pass, with the same result as the slices.
	SlicesPerPeriod int
}

// Machine is the simulated multicore CPU.
type Machine struct {
	hiers     []*mem.Hierarchy // one per LLC domain
	perDomain int              // cores per domain
	cores     []*Core
	period    uint64
	slices    int
	sliceLen  uint64 // period / slices, precomputed
	sliceRem  uint64 // period - sliceLen*slices, paid in the last slice
	now       uint64 // absolute cycle clock
	periods   uint64 // completed periods

	// pool is the domain-stepper pool the machine is a member of: a private
	// one (SetWorkers), one shared with other machines (NewPool), or nil.
	pool *Pool
}

// New constructs a machine. It panics on invalid configuration.
func New(cfg Config) *Machine {
	if cfg.Domains == 0 {
		cfg.Domains = 1
	}
	if cfg.Domains < 1 {
		panic(fmt.Sprintf("machine: domain count %d must be positive", cfg.Domains))
	}
	total := cfg.Cores
	if total == 0 && cfg.Hierarchy.Cores != 0 {
		total = cfg.Hierarchy.Cores * cfg.Domains
	}
	if total <= 0 {
		panic("machine: config needs Cores or a Hierarchy")
	}
	if total%cfg.Domains != 0 {
		panic(fmt.Sprintf("machine: %d cores not divisible into %d domains", total, cfg.Domains))
	}
	perDomain := total / cfg.Domains
	h := cfg.Hierarchy
	if h.Cores == 0 {
		h = mem.DefaultHierarchyConfig(perDomain)
	} else if h.Cores != perDomain {
		panic(fmt.Sprintf("machine: hierarchy spans %d cores but each of %d domains owns %d", h.Cores, cfg.Domains, perDomain))
	}
	if cfg.PeriodCycles == 0 {
		cfg.PeriodCycles = 60000
	}
	if cfg.SlicesPerPeriod == 0 {
		cfg.SlicesPerPeriod = 600
	}
	if cfg.SlicesPerPeriod < 1 || cfg.PeriodCycles < uint64(cfg.SlicesPerPeriod) {
		panic(fmt.Sprintf("machine: invalid period %d / slices %d", cfg.PeriodCycles, cfg.SlicesPerPeriod))
	}
	sliceLen := cfg.PeriodCycles / uint64(cfg.SlicesPerPeriod)
	m := &Machine{
		hiers:     make([]*mem.Hierarchy, cfg.Domains),
		perDomain: perDomain,
		cores:     make([]*Core, total),
		period:    cfg.PeriodCycles,
		slices:    cfg.SlicesPerPeriod,
		sliceLen:  sliceLen,
		sliceRem:  cfg.PeriodCycles - sliceLen*uint64(cfg.SlicesPerPeriod),
	}
	for d := range m.hiers {
		m.hiers[d] = mem.NewHierarchy(h)
	}
	for i := range m.cores {
		m.cores[i] = &Core{freqDiv: 1, hier: m.hiers[i/perDomain], local: i % perDomain}
	}
	return m
}

// Hierarchy exposes the memory system of domain 0 — the whole machine on
// the default single-domain configuration. Multi-domain callers should use
// DomainHierarchy and route cores with DomainOf/LocalCore.
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hiers[0] }

// Domains returns the LLC domain count.
func (m *Machine) Domains() int { return len(m.hiers) }

// DomainHierarchy exposes domain d's memory system.
func (m *Machine) DomainHierarchy(d int) *mem.Hierarchy { return m.hiers[d] }

// DomainOf returns the LLC domain owning the core.
func (m *Machine) DomainOf(core int) int { return core / m.perDomain }

// LocalCore translates a global core id into its index within its domain's
// hierarchy (which is sized for the domain's cores only).
func (m *Machine) LocalCore(core int) int { return core % m.perDomain }

// DomainCores returns the half-open global core range [lo, hi) of domain d.
func (m *Machine) DomainCores(d int) (lo, hi int) {
	return d * m.perDomain, (d + 1) * m.perDomain
}

// FlushCore empties the core's private caches and its lines in its domain's
// shared L3 (process teardown / migration off the core).
func (m *Machine) FlushCore(core int) {
	m.hiers[core/m.perDomain].FlushCore(core % m.perDomain)
}

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns the core count.
func (m *Machine) Cores() int { return len(m.cores) }

// Periods returns the number of completed periods.
func (m *Machine) Periods() uint64 { return m.periods }

// Bind assigns proc to core i, replacing any previous process.
func (m *Machine) Bind(i int, proc *Process) {
	m.cores[i].proc = proc
}

// Unbind removes the process from core i.
func (m *Machine) Unbind(i int) { m.cores[i].proc = nil }

// SetWorkers gives the machine a private domain-stepper pool of that many
// workers: RunPeriod/RunPeriods then step its LLC domains on the pool's
// helpers and the calling goroutine. Since domains share no memory-system
// state and stepDomain reproduces the serial core rotation within each
// domain (see stepDomain), the machine state after every period is
// bit-identical to the serial order. workers <= 1 (the default) stops the
// pool and restores the plain loop. Not safe to call concurrently with
// RunPeriods.
func (m *Machine) SetWorkers(workers int) {
	if workers < 1 {
		workers = 1
	}
	if workers == m.Workers() {
		return
	}
	if workers > 1 {
		NewPool(workers, m) // stops the pool it replaces
	} else {
		m.StopWorkers()
	}
}

// Workers returns the worker count of the machine's pool (1 = serial).
func (m *Machine) Workers() int {
	if m.pool == nil {
		return 1
	}
	return m.pool.workers
}

// StopWorkers stops the pool the machine is a member of (idempotent) — for
// a machine in a shared pool, the whole pool. Callers that enable
// Workers > 1 must stop the pool when done with the machine, or its
// goroutines stay parked for the life of the process.
func (m *Machine) StopWorkers() {
	if m.pool != nil {
		m.pool.Stop()
	}
}

// RunPeriod advances every core by one sampling period, interleaving the
// runnable cores of each domain in SlicesPerPeriod time slices. Paused
// cores and cores whose process has completed accumulate idle cycles.
func (m *Machine) RunPeriod() { m.RunPeriods(1) }

// RunPeriods advances the machine n periods in one batch. Callers with no
// per-period logic (baseline drains, microbenchmarks) batch here so a
// private pool pays one hand-off per batch instead of per period;
// per-period callers (the CAER runtime, the scheduler) use RunPeriod and
// still get the domain fan-out. A member of a shared pool steps alone here,
// with the plain loop; its pool steps it together with the others. The
// resulting machine state is identical to calling RunPeriod n times.
func (m *Machine) RunPeriods(n int) {
	if n <= 0 {
		return
	}
	if p := m.pool; p != nil && len(p.machines) == 1 {
		p.RunPeriods(n)
		return
	}
	m.stepSerial(n)
}

// stepSerial is the plain loop: every domain in index order, then the clock.
func (m *Machine) stepSerial(n int) {
	for d := range m.hiers {
		m.stepDomain(d, n)
	}
	m.advance(n)
}

// advance moves the clock past n stepped periods.
func (m *Machine) advance(n int) {
	m.now += uint64(n) * m.period
	m.periods += uint64(n)
}

// stepDomain advances domain d through n periods. Only state owned by the
// domain — its hierarchy and its cores — is touched, so distinct domains
// may run concurrently.
//
// Core order: the serial machine rotates the global core order every slice
// (offset below) so that cores earlier in the order, which see the memory
// channel first within a slice, don't systematically starve later ones.
// A global rotation restricted to a contiguous domain block [lo, hi) is
// itself a rotation of that block — the block's cores appear in the order
// offset..hi-1, lo..offset-1 when offset lands inside the block and
// lo..hi-1 otherwise — so stepping per-domain preserves each domain's
// serial intra-slice order exactly, and with it every per-seed result.
//
// A period in which at most one of the domain's cores can run has nothing
// to interleave and is stepped in one pass (stepUncontended).
func (m *Machine) stepDomain(d, n int) {
	lo := d * m.perDomain
	hi := lo + m.perDomain
	span := m.perDomain
	total := len(m.cores)
	for k := 0; k < n; k++ {
		start := m.now + uint64(k)*m.period
		if m.stepUncontended(m.cores[lo:hi], start) {
			continue
		}
		rotBase := int(m.periods+uint64(k)) * m.slices
		for s := 0; s < m.slices; s++ {
			budget := m.sliceLen
			if s == m.slices-1 {
				budget += m.sliceRem
			}
			sliceStart := start + uint64(s)*m.sliceLen
			offset := (rotBase + s) % total
			first := lo
			if offset > lo && offset < hi {
				first = offset
			}
			for i := 0; i < span; i++ {
				c := first + i
				if c >= hi {
					c -= span
				}
				m.runSlice(m.cores[c], sliceStart, budget)
			}
		}
	}
}

// stepUncontended steps one period of a domain's cores, starting at
// absolute cycle `at`, in one pass when at most one of them is runnable
// and that one runs at full speed, and reports whether it did. Every other
// core idles the whole period; the lone core retires its instructions back
// to back through the period with the retire loop runSlice uses.
//
// The result equals the sliced loop's. Issue times do not change: a slice
// resumes where the previous slice's last instruction ended (its start plus
// the carried debt), so back to back is what the slices produce. The one
// trace slicing leaves on a lone core is at completion: a process that
// completes on an instruction overrunning its slice stops being busy at
// that slice's end, and the overrun stays in Core.debt. The pass reproduces
// it from the offset the last instruction issued at.
func (m *Machine) stepUncontended(cores []*Core, at uint64) bool {
	var lone *Core
	for _, c := range cores {
		if !c.runnable() {
			continue
		}
		if lone != nil || c.freqDiv != 1 {
			return false
		}
		lone = c
	}
	for _, c := range cores {
		if c != lone {
			c.idle += m.period
		}
	}
	if lone == nil {
		return true
	}
	used, issued := lone.retire(at, lone.debt, m.period)
	lone.debt = 0
	end := m.period
	if lone.proc.done {
		end = m.sliceEnd(issued)
	}
	if used > end {
		lone.debt = used - end
		used = end
	}
	lone.busy += used
	lone.idle += m.period - used
	return true
}

// sliceEnd returns the period offset at which the slice holding offset t
// ends; the last slice also holds the period's remainder cycles.
func (m *Machine) sliceEnd(t uint64) uint64 {
	if s := t/m.sliceLen + 1; s < uint64(m.slices) {
		return s * m.sliceLen
	}
	return m.period
}

// runSlice executes core c for budget cycles starting at absolute cycle
// `at`, charging busy/idle accounting. An instruction whose latency
// overruns the slice leaves the overflow as debt that subsequent slices pay
// off before issuing new instructions, so per-instruction costs are exact
// regardless of slice granularity. The debt outlives the process: one that
// completes on an overrunning instruction leaves it to the core's next
// process (see Core.debt).
func (m *Machine) runSlice(c *Core, at, budget uint64) {
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
		// The whole slice stalls on the in-flight instruction.
		c.debt -= effective
		c.busy += budget
		return
	}
	used, _ := c.retire(at, c.debt, effective)
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

// retire runs the core's process from offset `used` of a window starting at
// absolute cycle `at`, issuing each instruction at at+used where the
// previous one ended, while used < end and the process has not completed.
// It returns the offset the last instruction ended at and, when that
// instruction completed the process, the offset it issued at.
//
// The loop keeps the accumulators and the retired count in locals and
// writes them back once on exit; the float operations are the ones, in the
// order, that stepping the process's fields would make. The whole-cycle
// part goes through int64, which equals the uint64 conversion because
// cpiAcc stays in [0, BaseCPI+1) and validate bounds BaseCPI below 2⁵³.
func (c *Core) retire(at, used, end uint64) (ended, issued uint64) {
	p := c.proc
	memFrac, cpi := p.prof.MemFraction, p.prof.BaseCPI
	memAcc, cpiAcc := p.memAcc, p.cpiAcc
	left := ^uint64(0) // instructions until completion; an endless process never gets there
	if p.prof.Instructions > 0 {
		left = p.prof.Instructions - p.retired
	}
	var n uint64
	for used < end {
		// Decide whether the next instruction is a memory reference using a
		// deterministic fractional accumulator (keeps the mix exact).
		memAcc += memFrac
		var cost uint64
		if memAcc >= 1 {
			memAcc -= 1
			a := p.gen.Next(p.rng)
			res := c.hier.Access(c.local, a.Addr, a.Write, at+used)
			cost = res.Latency
		} else {
			cpiAcc += cpi
			k := int64(cpiAcc)
			cost = uint64(k)
			cpiAcc -= float64(k) // sub-cycle instructions fold into the next
		}
		used += cost
		if n++; n == left {
			p.done = true
			issued = used - cost
			break
		}
	}
	p.memAcc, p.cpiAcc = memAcc, cpiAcc
	p.retired += n
	c.instrRet += n
	return used, issued
}

// ReadCounter implements pmu.Source over the simulated hardware.
func (m *Machine) ReadCounter(core int, ev pmu.Event) uint64 {
	h := m.hiers[core/m.perDomain]
	local := core % m.perDomain
	switch ev {
	case pmu.EventLLCMisses:
		return h.LLCMisses(local)
	case pmu.EventLLCAccesses:
		return h.LLCAccesses(local)
	case pmu.EventInstrRetired:
		return m.cores[core].instrRet
	case pmu.EventCycles:
		return m.cores[core].busy
	case pmu.EventL2Misses:
		return h.L2Misses(local)
	default:
		panic(fmt.Sprintf("machine: unknown PMU event %v", ev))
	}
}

// Utilization computes the paper's Equation 1 over the first n cores:
// U = (1/n) Σ R_i/(R_i+I_i). Passing n = Cores() covers the whole chip.
func (m *Machine) Utilization(n int) float64 {
	if n <= 0 || n > len(m.cores) {
		panic(fmt.Sprintf("machine: Utilization over %d cores (machine has %d)", n, len(m.cores)))
	}
	var u float64
	for i := 0; i < n; i++ {
		u += m.cores[i].Utilization()
	}
	return u / float64(n)
}
