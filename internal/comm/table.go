// Package comm implements the CAER communication table: the shared
// structure through which the cooperating CAER virtual layers exchange
// per-period PMU samples and reaction directives (paper §3.2, Figure 4).
//
// Each registered application owns one slot. The slot's sample window is
// single-writer (the CAER layer under that application publishes its own
// LLC-miss samples), and every engine reads its neighbours' windows and
// their liveness. Directives are this package's type but not the table's
// state: the pipeline's actuator applies each group's current directive
// to its batch cores. Table is safe for concurrent use.
//
// Table is in-process and the only table. The paper's cooperating layers
// are separate processes over shared memory; that is not reproduced here:
// every layer steps one simulated machine inside one process, and a mapped
// file of fixed slot count could not host the scheduler, which registers a
// slot per submitted job (DESIGN.md §2).
package comm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"caer/internal/stats"
	"caer/internal/telemetry"
)

// Role classifies an application the way the paper's data centers do.
type Role int

const (
	// RoleLatency marks a latency-sensitive application: monitored, never
	// modified.
	RoleLatency Role = iota
	// RoleBatch marks a throughput-oriented batch application: monitored
	// and throttled.
	RoleBatch
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleLatency:
		return "latency-sensitive"
	case RoleBatch:
		return "batch"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Directive is a reaction order recorded in the table. All batch
// applications must adhere to the current directive (paper §3.2).
type Directive int

const (
	// DirectiveRun lets the batch application execute at full speed.
	DirectiveRun Directive = iota
	// DirectivePause halts the batch application for the coming period(s).
	DirectivePause
)

// String returns the directive name.
func (d Directive) String() string {
	switch d {
	case DirectiveRun:
		return "run"
	case DirectivePause:
		return "pause"
	default:
		return fmt.Sprintf("Directive(%d)", int(d))
	}
}

// Slot is one application's region of the table.
type Slot struct {
	id    int
	name  string
	role  Role
	table *Table

	mu     sync.Mutex
	window *stats.Window
	// due is the expected table period of the owner's next publish, as
	// declared by its latest publish/cadence declaration; 0 = never
	// published. For the default cadence of 1 it equals the publish period
	// plus 1, which is why StalePeriods can measure lateness against the
	// declared cadence with no extra state: a slot is stale only once the
	// table clock passes due.
	due uint64
}

// ID returns the slot index within its table.
func (s *Slot) ID() int { return s.id }

// Name returns the application name.
func (s *Slot) Name() string { return s.name }

// Role returns the application class.
func (s *Slot) Role() Role { return s.role }

// Publish appends one per-period sample (LLC misses during the period) to
// the slot's window, advances the slot's publish sequence number, and
// declares the next publish due in the following period (cadence 1). Only
// the owning CAER layer calls Publish.
func (s *Slot) Publish(llcMisses float64) {
	s.PublishWithCadence(llcMisses, 1)
}

// PublishWithCadence is Publish with an explicit cadence declaration: the
// owner commits to publishing again within cadence table periods. A sampling
// controller that deliberately skips probes declares its widened interval
// here (or re-stamps it with DeclareCadence) so that StalePeriods — and the
// engine watchdogs consuming it — measure lateness against the declared
// schedule rather than flagging every intentional skip as a dead publisher.
// A cadence of 0 is treated as 1.
func (s *Slot) PublishWithCadence(llcMisses float64, cadence uint64) {
	if cadence == 0 {
		cadence = 1
	}
	telemetry.CommPublishes.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.window.Push(llcMisses)
	s.due = s.table.period.Load() + cadence
}

// DeclareCadence re-stamps the slot's expected next publish to cadence
// table periods from now, without publishing a sample. The deployment's
// sampling controller calls it after deciding the next probe interval —
// the decision lands after the period's publishes, so the publish itself
// cannot carry it. A slot that never published stays never-published (its
// staleness remains the table age). A cadence of 0 is treated as 1.
func (s *Slot) DeclareCadence(cadence uint64) {
	if cadence == 0 {
		cadence = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.due == 0 {
		return
	}
	s.due = s.table.period.Load() + cadence
}

// StalePeriods returns how many table periods the slot's owner is overdue:
// 0 while the table clock has not yet passed the declared next-publish
// period, and the overshoot (in whole periods, counting the due period
// itself) once it has. Under the default cadence of 1 this is exactly
// "periods since the last publish" — 0 when the slot published during the
// current period — and a slot that never published reports the full table
// age. Consumers (the CAER engines' watchdogs) treat a slot whose staleness
// keeps growing as a dead publisher and fail open; a publisher honouring a
// declared wider cadence never looks stale. Tables whose period is never
// advanced (BumpPeriod unused) always report 0: staleness detection is
// opt-in per deployment.
func (s *Slot) StalePeriods() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	period := s.table.period.Load()
	if s.due == 0 {
		return period
	}
	if period < s.due {
		return 0
	}
	return period - s.due + 1
}

// WindowMean returns the mean of the sample window (0 when empty).
func (s *Slot) WindowMean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.window.Mean()
}

// LastSample returns the most recent sample, or 0 if none.
func (s *Slot) LastSample() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.window.Len() == 0 {
		return 0
	}
	return s.window.Last()
}

// Table is the in-process communication table.
type Table struct {
	mu         sync.Mutex
	slots      int // registered so far: the next slot's ID
	windowSize int
	// period is the table-wide sampling-period counter, advanced once per
	// period by the deployment's driver (Pipeline.Control). It is atomic
	// rather than guarded by mu because every publish and staleness read
	// loads it while holding a slot lock: the per-period path takes no lock
	// but the slot's own, so slot and table locks never nest.
	period atomic.Uint64
}

// NewTable constructs a table whose slots hold windowSize samples each.
func NewTable(windowSize int) *Table {
	if windowSize <= 0 {
		panic(fmt.Sprintf("comm: window size must be positive, got %d", windowSize))
	}
	return &Table{windowSize: windowSize}
}

// BumpPeriod advances the table's sampling-period counter. The deployment
// driver calls it exactly once per period, before the period's publishes,
// so that StalePeriods measures publisher liveness in periods.
func (t *Table) BumpPeriod() { telemetry.CommPeriod.Set(float64(t.period.Add(1))) }

// Register adds an application and returns its slot.
func (t *Table) Register(name string, role Role) *Slot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Slot{
		id:     t.slots,
		name:   name,
		role:   role,
		table:  t,
		window: stats.NewWindow(t.windowSize),
	}
	t.slots++
	return s
}
