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

	// wake hands the current batch to one helper per send; the calling
	// goroutine is the last worker. nil — one worker, one unit, or a
	// stopped pool — is the plain loop with no channel operation.
	wake    chan struct{}
	periods int          // the batch length, written before the wake sends
	next    atomic.Int64 // cursor into units, shared by every worker of a batch
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
// cursor and one barrier, then each machine's clock. The members end in the
// state n RunPeriod calls on each would leave them in.
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
	for _, m := range p.machines {
		m.advance(n)
	}
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

// drain steps units off the shared cursor until none is left.
func (p *Pool) drain() {
	for {
		i := int(p.next.Add(1)) - 1
		if i >= len(p.units) {
			return
		}
		u := p.units[i]
		u.m.stepDomain(u.d, p.periods)
	}
}
