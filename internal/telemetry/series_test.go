package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

func TestSeriesCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("caer_test_events_total", "events")
	s := NewSeries(reg, 8)

	c.Add(3)
	s.Sample()
	c.Add(5)
	s.Sample()
	s.Sample() // no activity

	ref, ok := s.Lookup("caer_test_events_total")
	if !ok {
		t.Fatal("counter track not found")
	}
	end := s.Samples()
	if got := s.RateAt(ref, end, 3); got != (3+5+0)/3.0 {
		t.Fatalf("RateAt over 3 = %v, want %v", got, 8.0/3)
	}
	if got := s.RateAt(ref, end, 1); got != 0 {
		t.Fatalf("RateAt over last 1 = %v, want 0", got)
	}
	if got := s.RateAt(ref, end, 2); got != 2.5 {
		t.Fatalf("RateAt over last 2 = %v, want 2.5", got)
	}
	// Window wider than history clamps.
	if got := s.RateAt(ref, end, 100); got != 8.0/3 {
		t.Fatalf("clamped RateAt = %v, want %v", got, 8.0/3)
	}
}

func TestSeriesGaugePoints(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("caer_test_level", "level")
	s := NewSeries(reg, 4)
	ref, _ := s.Lookup("caer_test_level")

	for _, v := range []float64{1, 2, 3, 4, 5, 6} {
		g.Set(v)
		s.Sample()
	}
	// Capacity 4: retained window is samples 2..5 → points 3,4,5,6, sample
	// i in ring slot i%4.
	for i := 2; i < 6; i++ {
		if got, want := s.tracks[ref].values[i%4], float64(i+1); got != want {
			t.Fatalf("sample %d point = %v, want %v", i, got, want)
		}
	}
	if s.FirstRetained() != 2 || s.Samples() != 6 {
		t.Fatalf("retention bookkeeping: first %d samples %d", s.FirstRetained(), s.Samples())
	}
}

func TestSeriesHistogramWindows(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("caer_test_latency", "latency", 0, 100, 10)
	s := NewSeries(reg, 16)
	ref, _ := s.Lookup("caer_test_latency")

	// Period 0: fast observations only.
	for i := 0; i < 10; i++ {
		h.Observe(5)
	}
	s.Sample()
	// Period 1: half the observations over 50.
	for i := 0; i < 5; i++ {
		h.Observe(5)
		h.Observe(75)
	}
	s.Sample()

	if got := s.OverShareAt(ref, s.Samples(), 1, 50); got != 0.5 {
		t.Fatalf("OverShareAt last period = %v, want 0.5", got)
	}
	if got := s.OverShareAt(ref, s.Samples(), 2, 50); got != 0.25 {
		t.Fatalf("OverShareAt both periods = %v, want 0.25", got)
	}
	// A bound on a bucket edge counts that bucket as over; a bound inside
	// a bucket leaves the straddling bucket good.
	if got := s.OverShareAt(ref, s.Samples(), 1, 70); got != 0.5 {
		t.Fatalf("OverShareAt bound 70 = %v, want 0.5 (bucket [70,80) is over)", got)
	}
	if got := s.OverShareAt(ref, s.Samples(), 1, 71); got != 0 {
		t.Fatalf("OverShareAt bound 71 = %v, want 0 (straddling bucket is good)", got)
	}
	// Overflow always counts as over.
	h.Observe(1000)
	s.Sample()
	if got := s.OverShareAt(ref, s.Samples(), 1, 99); got != 1.0 {
		t.Fatalf("OverShareAt overflow = %v, want 1", got)
	}
	// Empty window → no burn.
	s.Sample()
	if got := s.OverShareAt(ref, s.Samples(), 1, 50); got != 0 {
		t.Fatalf("OverShareAt of empty window = %v, want 0", got)
	}
	// Each period's sum delta, as WriteDump carries it beside the rows.
	var buf bytes.Buffer
	if err := s.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var d seriesJSON
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{10 * 5, 5*5 + 5*75, 1000, 0} {
		if got := d.Tracks[ref].Sums[i]; got != want {
			t.Fatalf("period %d sum delta = %v, want %v", i, got, want)
		}
	}
}

func TestSeriesLateRegistration(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("caer_test_a_total", "a")
	s := NewSeries(reg, 8)
	c.Inc()
	s.Sample()

	// Register after construction: picked up on the next Sample.
	late := reg.Counter("caer_test_b_total", "b")
	late.Add(7)
	s.Sample()

	ref, ok := s.Lookup("caer_test_b_total")
	if !ok {
		t.Fatal("late counter track not found after Sample")
	}
	// The delta baseline for a late counter is its value at extend time, so
	// the 7 pre-extend increments never appear as a spike... they were
	// absorbed into the baseline. Only post-extend increments count.
	late.Add(2)
	s.Sample()
	if got := s.RateAt(ref, s.Samples(), 1); got != 2 {
		t.Fatalf("late counter rate = %v, want 2", got)
	}
}

func TestSeriesSampleAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("caer_test_events_total", "events")
	g := reg.Gauge("caer_test_level", "level")
	h := reg.Histogram("caer_test_latency", "latency", 0, 100, 16)
	s := NewSeries(reg, 32)

	allocs := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(1)
		h.Observe(50)
		s.Sample()
	})
	if allocs != 0 {
		t.Fatalf("Series.Sample allocates %v per period, want 0", allocs)
	}
}

func TestSeriesQueryAllocFree(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("caer_test_events_total", "events")
	h := reg.Histogram("caer_test_latency", "latency", 0, 100, 16)
	s := NewSeries(reg, 32)
	for i := 0; i < 40; i++ {
		c.Inc()
		h.Observe(float64(i % 100))
		s.Sample()
	}
	cref, _ := s.Lookup("caer_test_events_total")
	href, _ := s.Lookup("caer_test_latency")
	// The two queries the SLO engine runs every period.
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.RateAt(cref, s.Samples(), 16)
		_ = s.OverShareAt(href, s.Samples(), 16, 50)
	})
	if allocs != 0 {
		t.Fatalf("windowed queries allocate %v, want 0", allocs)
	}
}

// TestOverShareMatchesFullScan pins the log walk against the dense
// reference's full scan: on random rings — mostly idle periods, unwrapped
// and wrapped several times over, capacities from 1 to 130, a track
// registered late — every window query equals the scan of every cell of
// every row, for the live store and for its WriteDump -> ParseSeries copy
// (whose log ParseSeries rebuilds), with `end` before, inside and past the
// retained window.
func TestOverShareMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 60; round++ {
		capacity := 1 + rng.Intn(130)
		var regs [2]*Registry
		var early, late [2]*Histogram
		buckets := 1 + rng.Intn(20)
		for i := range regs {
			regs[i] = NewRegistry()
			early[i] = regs[i].Histogram("caer_test_latency", "latency", 10, 110, buckets, "svc", "early")
		}
		s := NewSeries(regs[0], capacity)
		ref := newRefSeries(regs[1], capacity)
		periods := rng.Intn(3*capacity + 2)
		idle := rng.Float64()
		for p := 0; p < periods; p++ {
			if late[0] == nil && rng.Intn(capacity+1) == 0 {
				for i := range regs {
					late[i] = regs[i].Histogram("caer_test_latency", "latency", 0, 64, 8, "svc", "late")
				}
			}
			for _, hs := range [][2]*Histogram{early, late} {
				if hs[0] == nil || rng.Float64() < idle {
					continue
				}
				for n := rng.Intn(4); n >= 0; n-- {
					v := rng.Float64()*140 - 10 // under, in range and over
					hs[0].Observe(v)
					hs[1].Observe(v)
				}
			}
			s.Sample()
			ref.Sample()
		}
		var buf bytes.Buffer
		if err := s.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseSeries(&buf)
		if err != nil {
			t.Fatalf("round %d: ParseSeries: %v", round, err)
		}
		for ti, info := range s.Tracks() {
			if info.Kind != KindHistogram {
				continue
			}
			tr := TrackRef(ti)
			for q := 0; q < 40; q++ {
				end := rng.Intn(periods+capacity+2) - capacity/2
				window := rng.Intn(2*capacity + 2)
				bound := rng.Float64()*140 - 10
				want := ref.OverShareAt(tr, end, window, bound)
				if got := s.OverShareAt(tr, end, window, bound); got != want {
					t.Fatalf("round %d (cap %d, %d periods) %s%s: OverShareAt(end %d, window %d, bound %v) = %v, full scan %v",
						round, capacity, periods, info.Name, info.Labels, end, window, bound, got, want)
				}
				if got := parsed.OverShareAt(tr, end, window, bound); got != want {
					t.Fatalf("round %d (cap %d, %d periods) %s%s: parsed OverShareAt(end %d, window %d, bound %v) = %v, live full scan %v",
						round, capacity, periods, info.Name, info.Labels, end, window, bound, got, want)
				}
			}
		}
	}
}

// seriesBytes is the store's footprint: the bytes of every slice it
// holds, read from their capacities.
func seriesBytes(s *Series) int {
	n := cap(s.tracks) * int(unsafe.Sizeof(seriesTrack{}))
	for i := range s.tracks {
		t := &s.tracks[i]
		n += 8*cap(t.values) + 8*cap(t.lastBuckets) + 8*cap(t.log) + 4*cap(t.ends)
	}
	return n
}

// TestSeriesFootprint pins that a histogram's store grows with its
// observations, not with capacity × buckets: the SLO battery's geometry
// (capacity 1<<15, a 256-bucket and a 64-bucket histogram) over a full
// ring with one observation every 30 periods fits in 1 MB, counter and
// gauge rings included. Dense rows of buckets+2 cells a period would
// take 42.5 MB.
func TestSeriesFootprint(t *testing.T) {
	reg := NewRegistry()
	wide := reg.Histogram("caer_test_sojourn", "sojourn", 0, 4096, 256)
	narrow := reg.Histogram("caer_test_latency", "latency", 0, 64, 64)
	s := NewSeries(reg, 1<<15)
	for p := 0; p < 1<<15; p++ {
		if p%30 == 0 {
			wide.Observe(float64(p % 4096))
			narrow.Observe(float64(p % 64))
		}
		s.Sample()
	}
	if got := seriesBytes(s); got > 1<<20 {
		t.Fatalf("series holds %d bytes after %d samples, want <= 1 MB", got, s.Samples())
	}
}

// buildDumpSeries drives a representative mixed workload for round-trip
// tests: wrapped rings, labels, all three kinds.
func buildDumpSeries(t *testing.T) *Series {
	t.Helper()
	reg := NewRegistry()
	c := reg.Counter("caer_test_events_total", "events", "svc", "mcf")
	g := reg.Gauge("caer_test_level", "level")
	h := reg.Histogram("caer_test_latency", "latency", 0, 100, 8, "svc", "mcf")
	s := NewSeries(reg, 4)
	for i := 0; i < 7; i++ {
		c.Add(uint64(i))
		g.Set(float64(i) * 1.5)
		h.Observe(float64(i * 13 % 100))
		if i%2 == 0 {
			h.Observe(250) // overflow
		}
		s.Sample()
	}
	return s
}

func TestSeriesDumpRoundTrip(t *testing.T) {
	s := buildDumpSeries(t)
	var buf bytes.Buffer
	if err := s.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	p, err := ParseSeries(strings.NewReader(first))
	if err != nil {
		t.Fatalf("ParseSeries: %v\n%s", err, first)
	}
	if p.Samples() != s.Samples() || p.cap != s.cap {
		t.Fatalf("parsed geometry %d/%d, want %d/%d", p.Samples(), p.cap, s.Samples(), s.cap)
	}

	// Queries agree between live and parsed stores.
	for _, name := range []string{"caer_test_events_total", "caer_test_latency"} {
		lr, ok1 := s.Lookup(name, "svc", "mcf")
		pr, ok2 := p.Lookup(name, "svc", "mcf")
		if !ok1 || !ok2 {
			t.Fatalf("lookup %s: live %v parsed %v", name, ok1, ok2)
		}
		if s.Kind(lr) != p.Kind(pr) {
			t.Fatalf("%s kind mismatch", name)
		}
	}
	lc, _ := s.Lookup("caer_test_events_total", "svc", "mcf")
	pc, _ := p.Lookup("caer_test_events_total", "svc", "mcf")
	end := s.Samples()
	if a, b := s.RateAt(lc, end, 4), p.RateAt(pc, end, 4); a != b {
		t.Fatalf("rate mismatch live %v parsed %v", a, b)
	}
	lh, _ := s.Lookup("caer_test_latency", "svc", "mcf")
	ph, _ := p.Lookup("caer_test_latency", "svc", "mcf")
	if a, b := s.OverShareAt(lh, end, 4, 50), p.OverShareAt(ph, end, 4, 50); a != b {
		t.Fatalf("overshare mismatch live %v parsed %v", a, b)
	}

	// Canonical encoding: dump → parse → dump is byte-identical.
	var buf2 bytes.Buffer
	if err := p.WriteDump(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatalf("re-dump differs:\n--- first\n%s\n--- second\n%s", first, buf2.String())
	}
}

func TestParsedSeriesIsReadOnly(t *testing.T) {
	s := buildDumpSeries(t)
	var buf bytes.Buffer
	if err := s.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := ParseSeries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sample on a parsed series should panic")
		}
	}()
	p.Sample()
}

func TestParseSeriesRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad version":     `{"version":2,"capacity":4,"samples":0,"first":0}`,
		"bad capacity":    `{"version":1,"capacity":0,"samples":0,"first":0}`,
		"over retention":  `{"version":1,"capacity":2,"samples":9,"first":1}`,
		"unwrapped first": `{"version":1,"capacity":8,"samples":3,"first":1}`,
		"unknown kind":    `{"version":1,"capacity":4,"samples":0,"first":0,"tracks":[{"name":"x","kind":"summary"}]}`,
		"nameless track":  `{"version":1,"capacity":4,"samples":0,"first":0,"tracks":[{"kind":"counter"}]}`,
		"value count":     `{"version":1,"capacity":4,"samples":2,"first":0,"tracks":[{"name":"x","kind":"counter","values":[1]}]}`,
		"kind mixing":     `{"version":1,"capacity":4,"samples":1,"first":0,"tracks":[{"name":"x","kind":"counter","values":[1],"buckets":3}]}`,
		"row cell range":  `{"version":1,"capacity":4,"samples":1,"first":0,"tracks":[{"name":"x","kind":"histogram","min":0,"max":10,"buckets":2,"rows":[[9,1]],"sums":[0]}]}`,
		"row order":       `{"version":1,"capacity":4,"samples":1,"first":0,"tracks":[{"name":"x","kind":"histogram","min":0,"max":10,"buckets":2,"rows":[[2,1,1,1]],"sums":[0]}]}`,
		"zero delta":      `{"version":1,"capacity":4,"samples":1,"first":0,"tracks":[{"name":"x","kind":"histogram","min":0,"max":10,"buckets":2,"rows":[[1,0]],"sums":[0]}]}`,
		"bad geometry":    `{"version":1,"capacity":4,"samples":0,"first":0,"tracks":[{"name":"x","kind":"histogram","min":5,"max":5,"buckets":2}]}`,
	}
	for name, in := range cases {
		if _, err := ParseSeries(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ParseSeries accepted %s", name, in)
		}
	}
}

func FuzzParseSeries(f *testing.F) {
	// Seed with real writer output plus the malformed shapes above.
	reg := NewRegistry()
	c := reg.Counter("caer_test_events_total", "events")
	h := reg.Histogram("caer_test_latency", "latency", 0, 100, 4)
	s := NewSeries(reg, 3)
	for i := 0; i < 5; i++ {
		c.Add(uint64(i))
		h.Observe(float64(i * 30))
		s.Sample()
	}
	var buf bytes.Buffer
	if err := s.WriteDump(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"capacity":4,"samples":0,"first":0}`))
	f.Add([]byte(`{"version":1,"capacity":2,"samples":9,"first":7,"tracks":[{"name":"x","kind":"gauge","values":[1,2]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseSeries(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must re-dump and re-parse to a byte-identical
		// canonical form (round-trip stability).
		var d1 bytes.Buffer
		if err := p.WriteDump(&d1); err != nil {
			t.Fatalf("dump of accepted parse failed: %v", err)
		}
		p2, err := ParseSeries(bytes.NewReader(d1.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of own dump failed: %v\n%s", err, d1.String())
		}
		var d2 bytes.Buffer
		if err := p2.WriteDump(&d2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
			t.Fatalf("round trip not stable:\n%s\nvs\n%s", d1.String(), d2.String())
		}
		// The SLO queries must not panic on any accepted input.
		for i, tr := range p.Tracks() {
			ref := TrackRef(i)
			switch tr.Kind {
			case KindCounter:
				_ = p.RateAt(ref, p.Samples(), 4)
			case KindHistogram:
				_ = p.OverShareAt(ref, p.Samples(), 4, 50)
			}
		}
	})
}
