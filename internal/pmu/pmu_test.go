package pmu

import (
	"testing"
	"testing/quick"
)

// fakeSource is a controllable Source for tests.
type fakeSource struct {
	counts map[int]map[Event]uint64
}

func newFakeSource() *fakeSource {
	return &fakeSource{counts: make(map[int]map[Event]uint64)}
}

func (f *fakeSource) bump(core int, ev Event, by uint64) {
	if f.counts[core] == nil {
		f.counts[core] = make(map[Event]uint64)
	}
	f.counts[core][ev] += by
}

func (f *fakeSource) ReadCounter(core int, ev Event) uint64 {
	return f.counts[core][ev]
}

func TestEventStrings(t *testing.T) {
	cases := map[Event]string{
		EventLLCMisses:    "LLC_MISSES",
		EventLLCAccesses:  "LLC_REFERENCES",
		EventInstrRetired: "INSTRUCTIONS_RETIRED",
		EventCycles:       "UNHALTED_CYCLES",
		EventL2Misses:     "L2_MISSES",
		Event(99):         "Event(99)",
	}
	for e, want := range cases {
		if got := e.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(e), got, want)
		}
	}
}

func TestEventsEnumeratesAll(t *testing.T) {
	evs := Events()
	if len(evs) != int(numEvents) {
		t.Fatalf("Events() returned %d, want %d", len(evs), int(numEvents))
	}
	for i, e := range evs {
		if int(e) != i {
			t.Errorf("Events()[%d] = %v", i, e)
		}
	}
}

func TestPMUArmDiscardsHistory(t *testing.T) {
	src := newFakeSource()
	src.bump(0, EventLLCMisses, 500)
	p := New(src, 0)
	// Counts before New are not visible.
	if d := p.ReadDelta(EventLLCMisses); d != 0 {
		t.Errorf("delta after New = %d, want 0", d)
	}
	src.bump(0, EventLLCMisses, 70)
	p.Arm()
	if d := p.ReadDelta(EventLLCMisses); d != 0 {
		t.Errorf("delta after Arm = %d, want 0", d)
	}
}

func TestPMUReadDeltaRestartSemantics(t *testing.T) {
	src := newFakeSource()
	p := New(src, 2)
	src.bump(2, EventInstrRetired, 100)
	if d := p.ReadDelta(EventInstrRetired); d != 100 {
		t.Errorf("first delta = %d, want 100", d)
	}
	if d := p.ReadDelta(EventInstrRetired); d != 0 {
		t.Errorf("immediate second delta = %d, want 0", d)
	}
	src.bump(2, EventInstrRetired, 30)
	src.bump(2, EventInstrRetired, 12)
	if d := p.ReadDelta(EventInstrRetired); d != 42 {
		t.Errorf("third delta = %d, want 42", d)
	}
}

func TestPMUEventsIndependent(t *testing.T) {
	src := newFakeSource()
	p := New(src, 0)
	src.bump(0, EventLLCMisses, 5)
	src.bump(0, EventCycles, 9)
	if d := p.ReadDelta(EventLLCMisses); d != 5 {
		t.Errorf("LLC delta = %d, want 5", d)
	}
	if d := p.ReadDelta(EventCycles); d != 9 {
		t.Errorf("cycles delta = %d, want 9", d)
	}
}

// peek reads ev on p's core through the side-effect-free path a Threshold
// checks with: a read that must neither restart p's counter nor advance a
// FaultSource's schedule.
func peek(p *PMU, ev Event) uint64 { return resolvePeeker(p.src)(p.core, ev) }

func TestPMUPeekDoesNotRestart(t *testing.T) {
	src := newFakeSource()
	p := New(src, 0)
	src.bump(0, EventLLCMisses, 8)
	if d := peek(p, EventLLCMisses) - p.last[EventLLCMisses]; d != 8 {
		t.Errorf("peeked delta = %d, want 8", d)
	}
	if d := p.ReadDelta(EventLLCMisses); d != 8 {
		t.Errorf("ReadDelta after Peek = %d, want 8", d)
	}
}

func TestPMUCoresIsolated(t *testing.T) {
	src := newFakeSource()
	p0, p1 := New(src, 0), New(src, 1)
	src.bump(0, EventLLCMisses, 3)
	src.bump(1, EventLLCMisses, 11)
	if d := p0.ReadDelta(EventLLCMisses); d != 3 {
		t.Errorf("core 0 delta = %d, want 3", d)
	}
	if d := p1.ReadDelta(EventLLCMisses); d != 11 {
		t.Errorf("core 1 delta = %d, want 11", d)
	}
	if p0.Core() != 0 || p1.Core() != 1 {
		t.Error("Core() mismatch")
	}
}

func TestSamplerRequiresEvents(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewSampler with no events did not panic")
		}
	}()
	NewSampler(New(newFakeSource(), 0), nil, false)
}

func TestSamplerProbeAndHistory(t *testing.T) {
	src := newFakeSource()
	s := NewSampler(New(src, 0), []Event{EventLLCMisses, EventInstrRetired}, true)
	src.bump(0, EventLLCMisses, 10)
	src.bump(0, EventInstrRetired, 1000)
	sm := s.Probe()
	if sm.Period != 0 || sm.Values[EventLLCMisses] != 10 || sm.Values[EventInstrRetired] != 1000 {
		t.Errorf("first sample = %+v", sm)
	}
	src.bump(0, EventLLCMisses, 4)
	sm = s.Probe()
	if sm.Period != 1 || sm.Values[EventLLCMisses] != 4 || sm.Values[EventInstrRetired] != 0 {
		t.Errorf("second sample = %+v", sm)
	}
	if s.period != 2 || len(s.history) != 2 {
		t.Errorf("periods=%d history=%d, want 2,2", s.period, len(s.history))
	}
	series := s.Series(EventLLCMisses)
	if len(series) != 2 || series[0] != 10 || series[1] != 4 {
		t.Errorf("Series = %v, want [10 4]", series)
	}
}

func TestSamplerWithoutRecording(t *testing.T) {
	src := newFakeSource()
	s := NewSampler(New(src, 0), []Event{EventCycles}, false)
	s.Probe()
	s.Probe()
	if s.history != nil {
		t.Error("non-recording sampler kept history")
	}
	if got := s.Series(EventCycles); len(got) != 0 {
		t.Errorf("Series without recording = %v, want empty", got)
	}
}

func TestSamplerEventSliceIsCopied(t *testing.T) {
	src := newFakeSource()
	evs := []Event{EventLLCMisses}
	s := NewSampler(New(src, 0), evs, false)
	evs[0] = EventCycles // must not affect the sampler
	src.bump(0, EventLLCMisses, 7)
	if sm := s.Probe(); sm.Values[EventLLCMisses] != 7 {
		t.Errorf("sampler affected by caller mutation: %+v", sm)
	}
}

// Property: the sum of ReadDelta results over any sequence of bumps equals
// the source's cumulative count at the end.
func TestPMUDeltasSumToCumulativeProperty(t *testing.T) {
	f := func(bumps []uint16) bool {
		src := newFakeSource()
		p := New(src, 0)
		var sum, total uint64
		for i, b := range bumps {
			src.bump(0, EventLLCMisses, uint64(b))
			total += uint64(b)
			if i%3 == 0 {
				sum += p.ReadDelta(EventLLCMisses)
			}
		}
		sum += p.ReadDelta(EventLLCMisses)
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSamplerProbeAllocs pins the per-period probe at zero allocations: the
// telemetry spine and the fixed-array Sample must keep the 1 ms loop free of
// garbage-collector pressure.
func TestSamplerProbeAllocs(t *testing.T) {
	src := newFakeSource()
	src.bump(0, EventLLCMisses, 100)
	src.bump(0, EventInstrRetired, 400)
	s := NewSampler(New(src, 0), []Event{EventLLCMisses, EventInstrRetired}, false)
	s.Probe()
	if n := testing.AllocsPerRun(1000, func() { s.Probe() }); n != 0 {
		t.Errorf("Sampler.Probe allocates %v per run, want 0", n)
	}
}
