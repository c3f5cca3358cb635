package machine

import (
	"sync"
	"sync/atomic"
)

// unit is one LLC domain of one machine: the grain the pool steps.
type unit struct {
	m *Machine
	d int
}

// Pool steps the LLC domains of one or more machines together (DESIGN.md
// §11). A machine owns a private one through SetWorkers; the fleet layer
// puts every machine of a cluster in one, so a fleet tick is one fan-out
// over all (machine, domain) units instead of one per machine.
//
// Only stepDomain runs concurrently, and a domain's step touches nothing
// but that domain's hierarchy and cores, so the state of every member after
// RunPeriods is bit-identical to stepping the machines one after another
// with the plain loop, at any worker count. Everything a caller does
// between two RunPeriods calls stays on the caller's goroutine.
//
// Not safe for concurrent use, nor for use concurrently with a member's
// RunPeriods, SetWorkers or StopWorkers.
type Pool struct {
	machines []*Machine
	units    []unit // every member's domains, in machine then domain order
	workers  int    // as configured; 1 once stopped
	helpers  int    // goroutines parked on wake

	// work holds, per unit, the memory references its last step simulated,
	// written by the worker that stepped it; order deals the units out by
	// descending work (ties by index), re-sorted after every batch, so the
	// busiest domains start first and the short ones fill in behind them
	// (longest processing time first). The key is simulated, not host
	// time: the schedule stays a function of the simulation.
	work  []uint64
	order []int

	// wake hands the current batch to one helper per send; the calling
	// goroutine is the last worker. nil — one worker, one unit, or a
	// stopped pool — is the plain loop with no channel operation.
	wake    chan struct{}
	periods int          // the batch length, written before the wake sends
	next    atomic.Int64 // cursor into order, shared by every worker of a batch
	done    sync.WaitGroup
}

// NewPool builds a pool of the given worker count over ms, which become its
// members: their StopWorkers stops it, and each leaves (and stops) whatever
// pool it was in. It starts min(workers, units)-1 helper goroutines, parked
// until Stop; callers that pass workers > 1 must stop the pool when done.
func NewPool(workers int, ms ...*Machine) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{machines: ms, workers: workers}
	for _, m := range ms {
		m.StopWorkers()
		m.pool = p
		for d := range m.hiers {
			p.units = append(p.units, unit{m, d})
		}
	}
	p.work = make([]uint64, len(p.units))
	p.order = make([]int, len(p.units))
	for i := range p.order {
		p.order[i] = i
	}
	p.helpers = min(workers, len(p.units)) - 1
	if p.helpers > 0 {
		p.wake = make(chan struct{})
		for i := 0; i < p.helpers; i++ {
			go p.helper(p.wake)
		}
	}
	return p
}

// Stop shuts the helpers down (idempotent). A stopped pool keeps stepping
// its members, serially.
func (p *Pool) Stop() {
	if p.wake != nil {
		close(p.wake)
		p.wake = nil
	}
	p.workers = 1
}

// RunPeriods advances every member n periods: all their domains through one
// cursor, busiest first, and one barrier, then each machine's clock. The
// members end in the state n RunPeriod calls on each would leave them in.
func (p *Pool) RunPeriods(n int) {
	if n <= 0 {
		return
	}
	if p.wake == nil {
		for _, m := range p.machines {
			m.stepSerial(n)
		}
		return
	}
	p.periods = n
	p.next.Store(0)
	p.wakeHelpers()
	p.drain()
	p.done.Wait()
	p.sortOrder()
	for _, m := range p.machines {
		m.advance(n)
	}
}

// sortOrder re-sorts order by descending work, ties by unit index. The
// order changes little from batch to batch, so the insertion sort is about
// one pass and allocates nothing.
func (p *Pool) sortOrder() {
	for i := 1; i < len(p.order); i++ {
		u := p.order[i]
		j := i
		for ; j > 0 && p.ahead(u, p.order[j-1]); j-- {
			p.order[j] = p.order[j-1]
		}
		p.order[j] = u
	}
}

// ahead reports whether unit a is dealt out before unit b.
func (p *Pool) ahead(a, b int) bool {
	return p.work[a] > p.work[b] || p.work[a] == p.work[b] && a < b
}

// wakeHelpers hands the batch to the parked helpers. caer-vet's hot walk
// stops here: the channel hand-off is the price of parallelism.
//
//caer:cold worker-pool hand-off: one channel send per helper per batch of periods — per fleet tick, not per machine or per access (DESIGN.md §11)
func (p *Pool) wakeHelpers() {
	p.done.Add(p.helpers)
	for i := 0; i < p.helpers; i++ {
		p.wake <- struct{}{}
	}
}

func (p *Pool) helper(wake <-chan struct{}) {
	for range wake {
		p.drain()
		p.done.Done()
	}
}

// drain steps units off the shared cursor, in order, until none is left,
// and records each one's work.
func (p *Pool) drain() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.order) {
			return
		}
		k := p.order[i]
		u := p.units[k]
		before := u.accesses()
		u.m.stepDomain(u.d, p.periods)
		p.work[k] = u.accesses() - before
	}
}

// accesses sums the L1 accesses of the unit's cores: every memory
// reference the domain has simulated.
func (u unit) accesses() uint64 {
	h := u.m.hiers[u.d]
	var n uint64
	for c := 0; c < h.Cores(); c++ {
		n += h.L1(c).Stats().Accesses
	}
	return n
}
