package caer

import (
	"testing"

	"caer/internal/comm"
)

func TestEventLogValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEventLog(0) did not panic")
		}
	}()
	NewEventLog(0)
}

func TestEventLogAppendAndEviction(t *testing.T) {
	l := NewEventLog(3)
	for p := uint64(0); p < 5; p++ {
		l.Append(Event{Period: p, Kind: EventDirective})
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
	evs := l.Events()
	for i, want := range []uint64{2, 3, 4} {
		if evs[i].Period != want {
			t.Errorf("Events[%d].Period = %d, want %d", i, evs[i].Period, want)
		}
	}
}

func TestEventStringFormats(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Period: 7, Kind: EventVerdict, Verdict: VerdictContention, OwnMisses: 10, NeighborMisses: 20},
			"p000007 verdict=contention own=10 neighbor=20"},
		{Event{Period: 8, Kind: EventHoldStart, Directive: comm.DirectivePause, HoldLen: 10},
			"p000008 hold directive=pause len=10"},
		{Event{Period: 9, Kind: EventHoldRelease, NeighborMisses: 5},
			"p000009 hold released (neighbor=5)"},
		{Event{Period: 10, Kind: EventDirective, Directive: comm.DirectiveRun},
			"p000010 directive=run"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
	if EventKind(9).String() != "EventKind(9)" {
		t.Error("unknown kind string wrong")
	}
	for k, want := range map[EventKind]string{
		EventVerdict: "verdict", EventHoldStart: "hold-start",
		EventHoldRelease: "hold-release", EventDirective: "directive",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestEngineLogsDecisions(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 3, holdDir: comm.DirectivePause}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})

	nbr.Publish(100)
	e.Tick(50)
	evs := e.Log().Events()
	if len(evs) < 3 {
		t.Fatalf("logged %d events, want >= 3 (verdict, hold, directive)", len(evs))
	}
	kinds := map[EventKind]bool{}
	for _, ev := range evs {
		kinds[ev.Kind] = true
	}
	if !kinds[EventVerdict] || !kinds[EventHoldStart] || !kinds[EventDirective] {
		t.Errorf("missing event kinds in %v", evs)
	}
	// The verdict carries the evidence it was based on.
	for _, ev := range evs {
		if ev.Kind == EventVerdict {
			if ev.OwnMisses != 50 || ev.NeighborMisses != 100 {
				t.Errorf("verdict evidence = %.0f/%.0f, want 50/100", ev.OwnMisses, ev.NeighborMisses)
			}
		}
	}
	// Directive changes are logged once, not every period.
	nbr.Publish(100)
	e.Tick(50) // hold tick, same directive
	total := e.Log().Total()
	nbr.Publish(100)
	e.Tick(50) // hold tick, same directive
	if e.Log().Total() != total {
		t.Error("unchanged directive was re-logged during hold")
	}
}

func TestEngineLogsHoldRelease(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 100, holdDir: comm.DirectiveRun, release: true}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	nbr.Publish(1)
	e.Tick(1) // verdict, hold start
	nbr.Publish(1)
	e.Tick(1) // hold releases immediately
	found := false
	for _, ev := range e.Log().Events() {
		if ev.Kind == EventHoldRelease {
			found = true
		}
	}
	if !found {
		t.Error("hold release not logged")
	}
}
