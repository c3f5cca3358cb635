package caer

import (
	"fmt"

	"caer/internal/comm"
	"caer/internal/telemetry"
)

// EventKind classifies a decision-log entry.
type EventKind int

const (
	// EventVerdict records a completed detection (c-positive/c-negative).
	EventVerdict EventKind = iota
	// EventHoldStart records entry into a response hold.
	EventHoldStart
	// EventHoldRelease records a hold ending early (soft lock released).
	EventHoldRelease
	// EventDirective records a directive change (run <-> pause).
	EventDirective
	// EventDegraded records the engine watchdog tripping: the neighbour
	// samples went stale for the watchdog horizon, so the engine fails
	// open (DirectiveRun) rather than trust a dead publisher's window.
	EventDegraded
	// EventRecovered records fresh neighbour samples resuming after a
	// degraded span; normal detection restarts.
	EventRecovered
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventVerdict:
		return "verdict"
	case EventHoldStart:
		return "hold-start"
	case EventHoldRelease:
		return "hold-release"
	case EventDirective:
		return "directive"
	case EventDegraded:
		return "degraded"
	case EventRecovered:
		return "recovered"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one logged engine decision.
type Event struct {
	Period    uint64
	Kind      EventKind
	Verdict   Verdict        // for EventVerdict
	Directive comm.Directive // for EventDirective / EventHoldStart
	HoldLen   int            // for EventHoldStart
	// StalePeriods is how long the neighbour samples had been stale when a
	// watchdog event fired (for EventDegraded).
	StalePeriods uint64
	// OwnMisses / NeighborMisses snapshot the evidence at decision time.
	OwnMisses      float64
	NeighborMisses float64
}

// String renders the event as one log line.
func (e Event) String() string {
	switch e.Kind {
	case EventVerdict:
		return fmt.Sprintf("p%06d verdict=%v own=%.0f neighbor=%.0f", e.Period, e.Verdict, e.OwnMisses, e.NeighborMisses)
	case EventHoldStart:
		return fmt.Sprintf("p%06d hold directive=%v len=%d", e.Period, e.Directive, e.HoldLen)
	case EventHoldRelease:
		return fmt.Sprintf("p%06d hold released (neighbor=%.0f)", e.Period, e.NeighborMisses)
	case EventDirective:
		return fmt.Sprintf("p%06d directive=%v", e.Period, e.Directive)
	case EventDegraded:
		return fmt.Sprintf("p%06d degraded: neighbour samples stale for %d periods, failing open", e.Period, e.StalePeriods)
	case EventRecovered:
		return fmt.Sprintf("p%06d recovered: neighbour samples resumed (neighbor=%.0f)", e.Period, e.NeighborMisses)
	default:
		return fmt.Sprintf("p%06d %v", e.Period, e.Kind)
	}
}

// EventLog is a bounded ring of engine decisions — the paper's prototype
// "logs the decisions it makes" for post-hoc analysis; bounding the ring
// keeps the runtime lightweight over arbitrarily long runs.
type EventLog struct {
	events []Event
	head   int
	count  int
	total  uint64
}

// NewEventLog returns a log keeping the most recent capacity events.
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		panic(fmt.Sprintf("caer: event log capacity %d must be positive", capacity))
	}
	return &EventLog{events: make([]Event, capacity)}
}

// Append records one event, evicting the oldest when full. Evictions are
// surfaced live through telemetry (caer_engine_log_dropped_total) so an
// operator can tell a quiet engine from one whose history is being
// truncated faster than it is collected.
func (l *EventLog) Append(e Event) {
	l.total++
	if l.count == len(l.events) {
		telemetry.EngineLogDropped.Inc()
		l.events[l.head] = e
		l.head = (l.head + 1) % len(l.events)
		return
	}
	l.events[(l.head+l.count)%len(l.events)] = e
	l.count++
}

// Len returns the number of retained events.
func (l *EventLog) Len() int { return l.count }

// Total returns the lifetime event count (including evicted events).
func (l *EventLog) Total() uint64 { return l.total }

// Cap returns the ring capacity.
func (l *EventLog) Cap() int { return len(l.events) }

// Dropped returns how many events the ring has evicted.
func (l *EventLog) Dropped() uint64 { return l.total - uint64(l.count) }

// Events returns the retained events oldest-first.
func (l *EventLog) Events() []Event {
	out := make([]Event, l.count)
	for i := 0; i < l.count; i++ {
		out[i] = l.events[(l.head+i)%len(l.events)]
	}
	return out
}
