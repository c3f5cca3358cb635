package slo

import (
	"bytes"
	"sync/atomic"
	"testing"
	"testing/quick"

	"caer/internal/telemetry"
)

// latencyFixture builds a registry + series with one latency histogram and
// one degraded-ticks counter, plus a fresh engine over them.
type latencyFixture struct {
	reg    *telemetry.Registry
	series *telemetry.Series
	h      *telemetry.Histogram
	c      *telemetry.Counter
	eng    *Engine
}

func newLatencyFixture(t *testing.T, objs []Objective, spans *telemetry.SpanRecorder) *latencyFixture {
	t.Helper()
	f := &latencyFixture{reg: telemetry.NewRegistry()}
	f.h = f.reg.Histogram("caer_fleet_request_latency_periods", "latency", 0, 1000, 100, "service", "mcf")
	f.c = f.reg.Counter("caer_engine_degraded_ticks_total", "degraded")
	f.series = telemetry.NewSeries(f.reg, 256)
	f.eng = NewEngine(Config{Series: f.series, Objectives: objs, Registry: f.reg, Spans: spans, Track: 9})
	return f
}

// tick drives one period: n good observations at 50, bad observations at
// 650, then sample + evaluate.
func (f *latencyFixture) tick(good, bad int) {
	for i := 0; i < good; i++ {
		f.h.Observe(50)
	}
	for i := 0; i < bad; i++ {
		f.h.Observe(650)
	}
	f.series.Sample()
	f.eng.Evaluate()
}

func p99Objective(pending int) Objective {
	return Objective{
		Name: "mcf-p99", Metric: "caer_fleet_request_latency_periods",
		LabelKV: []string{"service", "mcf"},
		Kind:    KindQuantile, Quantile: 0.99, Bound: 300,
		Window: 12, FastWindow: 2, Burn: 2, PendingPeriods: pending,
	}
}

func TestAlertLifecycle(t *testing.T) {
	spans := telemetry.NewSpanRecorder(64, new(atomic.Uint64))
	f := newLatencyFixture(t, []Objective{p99Objective(2)}, spans)

	// Healthy traffic: 100 requests/period, all fast.
	for i := 0; i < 20; i++ {
		f.tick(100, 0)
		if got := f.eng.alerts[0].state; got != StateInactive {
			t.Fatalf("period %d: state %v, want inactive", i, got)
		}
	}
	// Violation: 10% of requests over the bound — fast burn = 0.10/0.01 =
	// 10 immediately, but the slow window (12 periods, 2% share needed)
	// breaches only from the 3rd burning period: that is the dual-window
	// point, a single hot period cannot so much as go pending.
	f.tick(90, 10)
	f.tick(90, 10)
	if got := f.eng.alerts[0].state; got != StateInactive {
		t.Fatalf("before slow window breaches: state %v, want inactive", got)
	}
	f.tick(90, 10)
	if got := f.eng.alerts[0].state; got != StatePending {
		t.Fatalf("slow window breached: state %v, want pending", got)
	}
	f.tick(90, 10)
	if got := f.eng.alerts[0].state; got != StatePending {
		t.Fatalf("pending period 2: state %v, want pending", got)
	}
	f.tick(90, 10)
	if got := f.eng.alerts[0].state; got != StateFiring {
		t.Fatalf("past PendingPeriods: state %v, want firing", got)
	}
	if got := f.eng.alerts[0]; got.obj.Name != "mcf-p99" || got.state != StateFiring {
		t.Fatalf("objective %s state %v, want mcf-p99 firing", got.obj.Name, got.state)
	}
	if f.eng.Firing() != 1 {
		t.Fatalf("Firing() = %d, want 1", f.eng.Firing())
	}
	// Sustained: still one episode.
	for i := 0; i < 5; i++ {
		f.tick(90, 10)
	}
	// Recovery. The fast window clears after 2 clean periods; the slow
	// window still remembers the episode but resolve only needs one window
	// below threshold.
	f.tick(100, 0)
	f.tick(100, 0)
	for i := 0; i < 30 && f.eng.alerts[0].state == StateFiring; i++ {
		f.tick(100, 0)
	}
	if got := f.eng.alerts[0].state; got != StateResolved {
		t.Fatalf("after recovery: state %v, want resolved", got)
	}
	f.tick(100, 0)
	if got := f.eng.alerts[0].state; got != StateInactive {
		t.Fatalf("period after resolved: state %v, want inactive", got)
	}

	// Exactly one episode: one fired-counter increment, one alert span.
	var buf bytes.Buffer
	if err := f.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`caer_slo_alerts_total{slo="mcf-p99"} 1`)) {
		t.Fatalf("want exactly one alert episode, got:\n%s", buf.String())
	}
	if got := f.eng.Fired(); got != 1 {
		t.Fatalf("Fired() = %d, want the exported counter's 1", got)
	}
	var alertSpans int
	for _, s := range spans.Spans() {
		if s.Kind == telemetry.SpanAlert {
			alertSpans++
			if s.Track != 9 {
				t.Fatalf("alert span on track %d, want 9", s.Track)
			}
			if s.Periods == 0 || s.Value < 2 {
				t.Fatalf("alert span %+v: want positive length and peak burn >= threshold", s)
			}
		}
	}
	if alertSpans != 1 {
		t.Fatalf("recorded %d alert spans, want 1", alertSpans)
	}
}

func TestPendingBlipDoesNotFire(t *testing.T) {
	f := newLatencyFixture(t, []Objective{p99Objective(2)}, nil)
	for i := 0; i < 15; i++ {
		f.tick(100, 0)
	}
	// Three burning periods reach pending, then clean traffic: pending
	// must retreat without ever firing (PendingPeriods=2 needs a 3rd
	// consecutive burning evaluation).
	f.tick(90, 10)
	f.tick(90, 10)
	f.tick(90, 10)
	if got := f.eng.alerts[0].state; got != StatePending {
		t.Fatalf("blip: state %v, want pending", got)
	}
	f.tick(100, 0)
	f.tick(100, 0)
	if got := f.eng.alerts[0].state; got != StateInactive {
		t.Fatalf("after blip: state %v, want inactive (never fired)", got)
	}
	var buf bytes.Buffer
	if err := f.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`caer_slo_alerts_total{slo="mcf-p99"} 0`)) {
		t.Fatalf("blip fired an alert:\n%s", buf.String())
	}
	if got := f.eng.Fired(); got != 0 {
		t.Fatalf("Fired() = %d after a blip, want 0", got)
	}
}

func TestBudgetObjective(t *testing.T) {
	f := newLatencyFixture(t, []Objective{{
		Name: "degraded-budget", Metric: "caer_engine_degraded_ticks_total",
		Kind: KindBudget, Budget: 0.5, Window: 8, FastWindow: 2, Burn: 2,
	}}, nil)
	for i := 0; i < 10; i++ {
		f.series.Sample()
		f.eng.Evaluate()
	}
	if got := f.eng.alerts[0].state; got != StateInactive {
		t.Fatalf("quiet counter: state %v, want inactive", got)
	}
	// 2 degraded ticks per period: rate 2, burn 2/0.5 = 4 >= 2. The slow
	// window needs enough burning periods to cross too.
	for i := 0; i < 8; i++ {
		f.c.Add(2)
		f.series.Sample()
		f.eng.Evaluate()
	}
	if got := f.eng.alerts[0].state; got != StateFiring {
		t.Fatalf("sustained degraded ticks: state %v, want firing", got)
	}
}

func TestEvaluateAllocFree(t *testing.T) {
	f := newLatencyFixture(t, []Objective{
		p99Objective(2),
		{Name: "degraded-budget", Metric: "caer_engine_degraded_ticks_total",
			Kind: KindBudget, Budget: 0.5, Window: 8, Burn: 2},
	}, nil)
	for i := 0; i < 20; i++ {
		f.tick(50, 1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.h.Observe(50)
		f.series.Sample()
		f.eng.Evaluate()
	})
	if allocs != 0 {
		t.Fatalf("Evaluate allocates %v per period, want 0", allocs)
	}
}

func TestReplayMatchesLive(t *testing.T) {
	f := newLatencyFixture(t, []Objective{p99Objective(2)}, nil)
	// Two separated violation episodes.
	drive := func() {
		for i := 0; i < 15; i++ {
			f.tick(100, 0)
		}
		for i := 0; i < 8; i++ {
			f.tick(90, 10)
		}
		for i := 0; i < 25; i++ {
			f.tick(100, 0)
		}
		for i := 0; i < 8; i++ {
			f.tick(80, 20)
		}
		for i := 0; i < 25; i++ {
			f.tick(100, 0)
		}
	}
	drive()

	// Replay over the dumped series reproduces both episodes.
	var buf bytes.Buffer
	if err := f.series.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := telemetry.ParseSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := Replay(parsed, []Objective{p99Objective(2)})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if len(r.Episodes) != 2 {
		t.Fatalf("replay found %d episodes, want 2: %+v", len(r.Episodes), r.Episodes)
	}
	if r.Final != StateInactive {
		t.Fatalf("final state %v, want inactive", r.Final)
	}
	for _, ep := range r.Episodes {
		if ep.Open || ep.End < ep.Start || ep.PeakBurn < 2 {
			t.Fatalf("bad episode %+v", ep)
		}
	}
	if r.Episodes[0].End >= r.Episodes[1].Start {
		t.Fatalf("episodes overlap: %+v", r.Episodes)
	}
	if len(r.FiringPeriods) == 0 {
		t.Fatal("no firing periods recorded")
	}
	// Transition log is ordered and starts from a pending entry.
	for i := 1; i < len(r.Transitions); i++ {
		if r.Transitions[i].Period <= r.Transitions[i-1].Period {
			t.Fatalf("transitions out of order: %+v", r.Transitions)
		}
	}
	if r.Transitions[0].To != StatePending {
		t.Fatalf("first transition %+v, want -> pending", r.Transitions[0])
	}
}

// TestFiringMonotoneInBound is the quick property from ISSUE: on a fixed
// series, loosening a quantile objective's bound can only shrink the set
// of firing periods. (The count is NOT monotone — a looser bound can
// split one episode in two — but pointwise firing is: a period firing
// under the loose bound also fires under the tight one.)
func TestFiringMonotoneInBound(t *testing.T) {
	objective := func(bound float64) Objective {
		o := p99Objective(1)
		o.Bound = bound
		return o
	}
	check := func(pattern []uint8, tightRaw, looseRaw uint16) bool {
		if len(pattern) == 0 {
			return true
		}
		if len(pattern) > 64 {
			pattern = pattern[:64]
		}
		tight := 10 + float64(tightRaw%500)
		loose := tight + float64(looseRaw%400)

		reg := telemetry.NewRegistry()
		h := reg.Histogram("caer_fleet_request_latency_periods", "latency", 0, 1000, 100, "service", "mcf")
		series := telemetry.NewSeries(reg, 128)
		for _, b := range pattern {
			// b drives the period's bad share (0..15 bad of 100) and a
			// latency magnitude for the bad requests.
			bad := int(b % 16)
			lat := 100 + float64(b)*3 // 100..865
			for i := 0; i < 100-bad; i++ {
				h.Observe(5)
			}
			for i := 0; i < bad; i++ {
				h.Observe(lat)
			}
			series.Sample()
		}
		rt, errT := Replay(series, []Objective{objective(tight)})
		rl, errL := Replay(series, []Objective{objective(loose)})
		if errT != nil || errL != nil {
			t.Fatal(errT, errL)
		}
		firingTight := make(map[uint64]bool, len(rt[0].FiringPeriods))
		for _, p := range rt[0].FiringPeriods {
			firingTight[p] = true
		}
		for _, p := range rl[0].FiringPeriods {
			if !firingTight[p] {
				t.Logf("period %d fires at loose bound %v but not tight %v", p, loose, tight)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("caer_test_total", "c")
	series := telemetry.NewSeries(reg, 8)
	cases := map[string]Config{
		"no series":    {Objectives: []Objective{{Name: "x", Metric: "caer_test_total", Kind: KindBudget, Budget: 1, Window: 4}}},
		"no objective": {Series: series},
		"bad metric": {Series: series, Objectives: []Objective{
			{Name: "x", Metric: "caer_missing_total", Kind: KindBudget, Budget: 1, Window: 4}}},
		"kind mismatch": {Series: series, Objectives: []Objective{
			{Name: "x", Metric: "caer_test_total", Kind: KindQuantile, Quantile: 0.99, Bound: 1, Window: 4}}},
		"dup names": {Series: series, Objectives: []Objective{
			{Name: "x", Metric: "caer_test_total", Kind: KindBudget, Budget: 1, Window: 4},
			{Name: "x", Metric: "caer_test_total", Kind: KindBudget, Budget: 1, Window: 4}}},
		"zero window": {Series: series, Objectives: []Objective{
			{Name: "x", Metric: "caer_test_total", Kind: KindBudget, Budget: 1}}},
		"bad quantile": {Series: series, Objectives: []Objective{
			{Name: "x", Metric: "caer_test_total", Kind: KindQuantile, Quantile: 1.5, Bound: 1, Window: 4}}},
	}
	for name, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewEngine accepted bad config", name)
				}
			}()
			NewEngine(cfg)
		}()
		// Replay reports what NewEngine panics on as an error.
		if cfg.Series != nil {
			if reports, err := Replay(cfg.Series, cfg.Objectives); err == nil || reports != nil {
				t.Errorf("%s: Replay returned %d reports and error %v, want an error", name, len(reports), err)
			}
		}
	}
}

func TestKindAndStateStrings(t *testing.T) {
	for _, k := range []ObjectiveKind{KindQuantile, KindBudget} {
		if k.String() == "" || k.String()[0] == 'O' {
			t.Fatalf("ObjectiveKind(%d) has no name", int(k))
		}
	}
	for _, s := range []AlertState{StateInactive, StatePending, StateFiring, StateResolved} {
		if s.String() == "" || s.String()[0] == 'A' {
			t.Fatalf("AlertState(%d) has no name", int(s))
		}
	}
}
