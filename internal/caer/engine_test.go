package caer

import (
	"sync/atomic"
	"testing"

	"caer/internal/comm"
	"caer/internal/telemetry"
)

// scriptDetector yields a pre-programmed sequence of (directive, verdict)
// pairs and records inputs.
type scriptDetector struct {
	dirs     []comm.Directive
	verdicts []Verdict
	i        int
	resets   int
	seenOwn  []float64
	seenNbr  []float64
}

func (s *scriptDetector) Name() string { return "script" }

func (s *scriptDetector) Step(own, nbr float64) (comm.Directive, Verdict) {
	s.seenOwn = append(s.seenOwn, own)
	s.seenNbr = append(s.seenNbr, nbr)
	d, v := s.dirs[s.i], s.verdicts[s.i]
	s.i = (s.i + 1) % len(s.dirs)
	return d, v
}

func (s *scriptDetector) Reset() { s.resets++ }

// scriptResponder returns a fixed reaction and records calls.
type scriptResponder struct {
	dir      comm.Directive
	length   int
	holdDir  comm.Directive
	release  bool
	reacts   int
	holds    int
	verdicts []bool
}

func (s *scriptResponder) Name() string { return "script" }

func (s *scriptResponder) React(c bool, v View) (comm.Directive, int) {
	s.reacts++
	s.verdicts = append(s.verdicts, c)
	return s.dir, s.length
}

func (s *scriptResponder) Hold(v View) (comm.Directive, bool) {
	s.holds++
	return s.holdDir, s.release
}

func (s *scriptResponder) Reset() {}

func newTestSlots(t *testing.T) (own *comm.Slot, nbr *comm.Slot) {
	t.Helper()
	tab := comm.NewTable(8)
	nbr = tab.Register("lat", comm.RoleLatency)
	own = tab.Register("batch", comm.RoleBatch)
	return own, nbr
}

// privateLane moves e's span lane onto a fresh recorder, so a test reads
// its own engine's decisions and nothing else the process recorded.
func privateLane(e *Engine) *telemetry.SpanRecorder {
	rec := telemetry.NewSpanRecorder(1<<12, new(atomic.Uint64))
	e.spans = rec
	rec.NameTrack(e.track, e.laneName)
	return rec
}

// spansOf returns rec's spans of one kind, oldest first.
func spansOf(rec *telemetry.SpanRecorder, kind telemetry.SpanKind) []telemetry.Span {
	var out []telemetry.Span
	for _, sp := range rec.Spans() {
		if sp.Kind == kind {
			out = append(out, sp)
		}
	}
	return out
}

func TestNewEngineValidation(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{dirs: []comm.Directive{comm.DirectiveRun}, verdicts: []Verdict{VerdictPending}}
	resp := &scriptResponder{dir: comm.DirectiveRun, length: 1}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil detector", func() { NewEngine(nil, resp, own, []*comm.Slot{nbr}) })
	mustPanic("nil responder", func() { NewEngine(det, nil, own, []*comm.Slot{nbr}) })
	mustPanic("latency own slot", func() { NewEngine(det, resp, nbr, []*comm.Slot{nbr}) })
	mustPanic("no neighbours", func() { NewEngine(det, resp, own, nil) })
	mustPanic("batch neighbour", func() { NewEngine(det, resp, own, []*comm.Slot{own}) })
}

func TestEnginePendingVerdictFollowsDetectorDirective(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectivePause, comm.DirectiveRun},
		verdicts: []Verdict{VerdictPending, VerdictPending},
	}
	resp := &scriptResponder{dir: comm.DirectiveRun, length: 1}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})

	nbr.Publish(50)
	if d := e.Tick(7); d != comm.DirectivePause {
		t.Errorf("tick 1 directive = %v, want pause (detector probing)", d)
	}
	nbr.Publish(60)
	if d := e.Tick(8); d != comm.DirectiveRun {
		t.Errorf("tick 2 directive = %v, want run", d)
	}
	if resp.reacts != 0 {
		t.Error("responder consulted during pending detection")
	}
	// The engine fed the detector its own sample and the neighbour's last
	// published sample.
	if det.seenOwn[0] != 7 || det.seenNbr[0] != 50 || det.seenNbr[1] != 60 {
		t.Errorf("detector inputs = own %v nbr %v", det.seenOwn, det.seenNbr)
	}
	// The engine published its own samples to the table.
	if own.WindowMean() != 7.5 || own.LastSample() != 8 {
		t.Errorf("own slot window mean=%v last=%v, want 7.5 and 8", own.WindowMean(), own.LastSample())
	}
}

func TestEngineHoldPhaseLifecycle(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 3, holdDir: comm.DirectivePause}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})

	tick := func() comm.Directive {
		nbr.Publish(100)
		return e.Tick(100)
	}
	// Verdict tick: React -> pause for 3 periods total.
	if d := tick(); d != comm.DirectivePause {
		t.Fatalf("verdict tick directive = %v", d)
	}
	if det.resets != 1 {
		t.Errorf("detector resets after verdict = %d, want 1", det.resets)
	}
	// Two hold ticks follow (3 periods total including the verdict tick).
	if d := tick(); d != comm.DirectivePause {
		t.Error("hold tick 1 not paused")
	}
	if d := tick(); d != comm.DirectivePause {
		t.Error("hold tick 2 not paused")
	}
	if resp.holds != 2 {
		t.Errorf("holds = %d, want 2", resp.holds)
	}
	// Next tick is detection again (script yields another verdict).
	tick()
	if resp.reacts != 2 {
		t.Errorf("reacts = %d, want 2 (detection resumed)", resp.reacts)
	}
	st := e.Stats()
	if st.Periods != 4 || st.CPositive != 2 || st.HoldTicks != 2 || st.DetectionTicks != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.PausedPeriods != 4 {
		t.Errorf("paused periods = %d, want 4", st.PausedPeriods)
	}
}

func TestEngineEarlyReleaseFromHold(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 100, holdDir: comm.DirectiveRun, release: true}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})

	nbr.Publish(1)
	e.Tick(1) // verdict -> enter hold(99)
	nbr.Publish(1)
	if d := e.Tick(1); d != comm.DirectiveRun {
		t.Errorf("released hold directive = %v, want run", d)
	}
	// Detection resumed: next tick hits the detector again.
	nbr.Publish(1)
	e.Tick(1)
	if resp.reacts != 2 {
		t.Errorf("reacts = %d, want 2 (early release resumed detection)", resp.reacts)
	}
}

func TestEngineLengthOneSkipsHold(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictNoContention},
	}
	resp := &scriptResponder{dir: comm.DirectiveRun, length: 1}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	for i := 0; i < 5; i++ {
		nbr.Publish(1)
		e.Tick(1)
	}
	if resp.holds != 0 {
		t.Errorf("holds = %d, want 0 for length-1 reactions", resp.holds)
	}
	if resp.reacts != 5 {
		t.Errorf("reacts = %d, want 5", resp.reacts)
	}
}

func TestEngineRejectsZeroHoldLength(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectiveRun, length: 0}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	nbr.Publish(1)
	defer func() {
		if recover() == nil {
			t.Error("zero hold length did not panic")
		}
	}()
	e.Tick(1)
}

func TestEngineViewAggregatesNeighbours(t *testing.T) {
	tab := comm.NewTable(4)
	n1 := tab.Register("lat1", comm.RoleLatency)
	n2 := tab.Register("lat2", comm.RoleLatency)
	own := tab.Register("batch", comm.RoleBatch)
	det := &scriptDetector{dirs: []comm.Directive{comm.DirectiveRun}, verdicts: []Verdict{VerdictPending}}
	resp := &scriptResponder{dir: comm.DirectiveRun, length: 1}
	e := NewEngine(det, resp, own, []*comm.Slot{n1, n2})

	n1.Publish(10)
	n2.Publish(30)
	e.Tick(5)
	if got := e.LastNeighbor(); got != 40 {
		t.Errorf("LastNeighbor = %v, want 40 (sum)", got)
	}
	if got := e.NeighborMean(); got != 40 {
		t.Errorf("NeighborMean = %v, want 40", got)
	}
	if got := e.OwnMean(); got != 5 {
		t.Errorf("OwnMean = %v, want 5", got)
	}
	if det.seenNbr[0] != 40 {
		t.Errorf("detector neighbour input = %v, want aggregated 40", det.seenNbr[0])
	}
}

// TestEngineLogsDecisions: the engine's span lane is its decision log. A
// verdict is one detect span, its evidence is the engine's publish span
// and the neighbour slot's sample in that period, and a hold is one span
// once it ends. Directive changes are counted once, not every period.
func TestEngineLogsDecisions(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 3, holdDir: comm.DirectivePause}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	rec := privateLane(e)

	nbr.Publish(100)
	e.Tick(50)
	detects := spansOf(rec, telemetry.SpanDetect)
	if st := e.Stats(); uint64(len(detects)) != st.CPositive+st.CNegative || len(detects) != 1 {
		t.Fatalf("%d detect spans for %d+%d verdicts, want one each", len(detects), st.CPositive, st.CNegative)
	}
	d := detects[0]
	if d.Start != 0 || d.Periods != 1 || d.Value != 1 {
		t.Errorf("detect span = %+v, want period 0, length 1, contention", d)
	}
	if rec.TrackName(d.Track) != "batch/batch" {
		t.Errorf("detect span on lane %q, want batch/batch", rec.TrackName(d.Track))
	}
	// The verdict's evidence: the publish span of its period carries the
	// engine's own misses, the neighbour slot the neighbour's.
	var ownMisses float64
	for _, p := range spansOf(rec, telemetry.SpanPublish) {
		if p.Start == d.Start+uint64(d.Periods)-1 {
			ownMisses = p.Value
		}
	}
	if ownMisses != 50 || nbr.LastSample() != 100 {
		t.Errorf("verdict evidence = %.0f/%.0f, want 50/100", ownMisses, nbr.LastSample())
	}
	if n := len(spansOf(rec, telemetry.SpanHold)); n != 0 {
		t.Errorf("%d hold spans while the hold is still open, want 0", n)
	}

	// Hold ticks with an unchanged directive add no directive change.
	changes := telemetry.EngineDirectiveChanges.Value()
	for i := 0; i < 2; i++ {
		nbr.Publish(100)
		e.Tick(50)
	}
	if got := telemetry.EngineDirectiveChanges.Value(); got != changes {
		t.Errorf("unchanged directive counted %d more changes during the hold", got-changes)
	}
	holds := spansOf(rec, telemetry.SpanHold)
	if len(holds) != 1 || holds[0].Start != 0 || holds[0].Periods != 3 || holds[0].Value != 1 {
		t.Errorf("hold spans = %+v, want one pausing hold over periods [0,3)", holds)
	}
}

// TestEngineLogsHoldRelease: a hold the responder releases early shows as
// a hold span shorter than the hold length it was granted.
func TestEngineLogsHoldRelease(t *testing.T) {
	own, nbr := newTestSlots(t)
	det := &scriptDetector{
		dirs:     []comm.Directive{comm.DirectiveRun},
		verdicts: []Verdict{VerdictContention},
	}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 100, holdDir: comm.DirectiveRun, release: true}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	rec := privateLane(e)
	nbr.Publish(1)
	e.Tick(1) // verdict, hold start
	nbr.Publish(1)
	e.Tick(1) // hold releases immediately
	holds := spansOf(rec, telemetry.SpanHold)
	if len(holds) != 1 {
		t.Fatalf("%d hold spans, want 1", len(holds))
	}
	if holds[0].Start != 0 || holds[0].Periods >= uint32(resp.length) {
		t.Errorf("released hold span = %+v, want one starting at 0 shorter than %d periods", holds[0], resp.length)
	}
}
