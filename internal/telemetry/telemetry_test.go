package telemetry

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value() = %d, want 42", got)
	}
	if got := r.SelfOps(); got != 2 {
		t.Fatalf("SelfOps() = %d, want 2 (one per Inc/Add)", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "depth")
	if got := g.Value(); got != 0 {
		t.Fatalf("zero gauge = %v, want 0", got)
	}
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Fatalf("Value() = %v, want 3.5", got)
	}
	g.Set(-1)
	if got := g.Value(); got != -1 {
		t.Fatalf("Value() = %v, want -1", got)
	}
}

func TestHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat", "latency", 0, 10, 10)
	for _, v := range []float64{-1, 0, 0.5, 5, 9.99, 10, 100} {
		h.Observe(v)
	}
	if got := h.N(); got != 7 {
		t.Fatalf("N() = %d, want 7", got)
	}
	if got := h.Sum(); math.Abs(got-124.49) > 1e-9 {
		t.Fatalf("Sum() = %v, want 124.49", got)
	}
	if got := h.under.Load(); got != 1 {
		t.Fatalf("under = %d, want 1", got)
	}
	if got := h.over.Load(); got != 2 {
		t.Fatalf("over = %d, want 2", got)
	}
	// In range: 0 and 0.5 share bucket [0,1); 5 and 9.99 land alone.
	for b, want := range map[int]uint64{0: 2, 5: 1, 9: 1} {
		if got := h.buckets[b].Load(); got != want {
			t.Fatalf("bucket %d = %d, want %d", b, got, want)
		}
	}
}

// TestHistogramEachBucketMatchesSnapshot: EachBucket yields the (le, count)
// pairs a snapshot's _bucket lines parse back to, tails included, and
// allocates nothing.
func TestHistogramEachBucketMatchesSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat", "latency", 0, 3, 3, "service", "x")
	for _, v := range []float64{-2, -1, 0.5, 1, 2.9, 3, 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ le, cum float64 }
	var want, got []pair
	for _, m := range ms {
		if m.Name == "test_lat_bucket" {
			le, err := strconv.ParseFloat(m.Labels["le"], 64)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, pair{le, m.Value})
		}
	}
	h.EachBucket(func(le float64, cum uint64) { got = append(got, pair{le, float64(cum)}) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EachBucket yields %v, the snapshot renders %v", got, want)
	}
	if got[0].cum != 3 || got[len(got)-1].cum != float64(h.N()) {
		t.Fatalf("EachBucket %v: want the 2 underflows in the first bucket and +Inf = count %d", got, h.N())
	}
	var sum uint64
	if n := testing.AllocsPerRun(10, func() { h.EachBucket(func(_ float64, cum uint64) { sum += cum }) }); n != 0 {
		t.Fatalf("EachBucket allocates %v times", n)
	}
}

func TestRegistryDedupAndKindMismatch(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "help")
	b := r.Counter("test_total", "help")
	if a != b {
		t.Fatal("same (name, labels) should return the same handle")
	}
	c := r.Counter("test_total", "help", "mode", "x")
	if a == c {
		t.Fatal("different labels should return a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("test_total", "help")
}

func TestRegistryOddLabelsPanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("odd label list should panic")
		}
	}()
	r.Counter("test_total", "help", "mode")
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "last family").Add(7)
	r.Counter("a_total", "events by mode", "mode", "x").Inc()
	r.Counter("a_total", "events by mode", "mode", "y").Add(2)
	r.Gauge("g_depth", "depth").Set(1.5)
	h := r.Histogram("h_lat", "latency", 0, 4, 2)
	h.Observe(1)
	h.Observe(3)
	h.Observe(99)

	// Families sorted by name, one HELP/TYPE header per family, series
	// sorted by labels, histograms expanded into cumulative buckets.
	wantExposition(t, r, `# HELP a_total events by mode
# TYPE a_total counter
a_total{mode="x"} 1
a_total{mode="y"} 2
# HELP g_depth depth
# TYPE g_depth gauge
g_depth 1.5
# HELP h_lat latency
# TYPE h_lat histogram
h_lat_bucket{le="2"} 1
h_lat_bucket{le="4"} 2
h_lat_bucket{le="+Inf"} 3
h_lat_sum 103
h_lat_count 3
# HELP z_total last family
# TYPE z_total counter
z_total 7
`)
}

func TestSnapshotParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_total", "events", "mode", "a b").Add(3)
	r.Gauge("rt_depth", "depth").Set(2.25)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	ms, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]TextMetric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	if m := byName["rt_total"]; m.Value != 3 || m.Labels["mode"] != "a b" {
		t.Fatalf("rt_total parsed as %+v", m)
	}
	if m := byName["rt_depth"]; m.Value != 2.25 {
		t.Fatalf("rt_depth parsed as %+v", m)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		"x{unterminated 3\n",
		"x 3 4 5\n",
		"x{a=\"b\"} notanumber\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", bad)
		}
	}
}

func TestDefaultSpineFamilies(t *testing.T) {
	// The spine pre-registers every family DESIGN.md §10 documents; spot
	// check the ones the CI smoke step asserts on.
	var sb strings.Builder
	if err := WriteSnapshot(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	for _, fam := range []string{
		"caer_pmu_reads_total",
		"caer_pmu_faults_total",
		"caer_comm_publishes_total",
		"caer_engine_ticks_total",
		"caer_engine_verdicts_total",
		"caer_sched_admissions_total",
		"caer_runner_runs_total",
		"caer_telemetry_ops_total",
		"caer_telemetry_spans_total",
	} {
		if !strings.Contains(got, fam) {
			t.Errorf("default snapshot missing family %s", fam)
		}
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_conc", "concurrent", 0, 100, 10)
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if got := h.N(); got != workers*each {
		t.Fatalf("N() = %d, want %d", got, workers*each)
	}
	wantSum := float64(workers) * each / 100 * (99 * 100 / 2)
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("Sum() = %v, want %v (CAS loop lost updates?)", got, wantSum)
	}
}

// Zero-allocation pins for every hot-path operation (ISSUE 4 acceptance
// criterion). These are the operations caer-vet's hot walk reaches.

func TestCounterIncAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %v/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Fatalf("Counter.Add allocates %v/op, want 0", n)
	}
}

func TestGaugeSetAllocs(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("test_depth", "t")
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.25) }); n != 0 {
		t.Fatalf("Gauge.Set allocates %v/op, want 0", n)
	}
}

func TestHistogramObserveAllocs(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_lat", "t", 0, 100, 20)
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		h.Observe(v)
		v += 0.5
	}); n != 0 {
		t.Fatalf("Histogram.Observe allocates %v/op, want 0", n)
	}
}

func TestSpanRecordAllocs(t *testing.T) {
	var self atomic.Uint64
	rec := NewSpanRecorder(1024, &self)
	p := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		rec.Record(1, SpanDetect, p, 3, 1)
		p++
	}); n != 0 {
		t.Fatalf("SpanRecorder.Record allocates %v/op, want 0", n)
	}
}

func TestHTTPHandler(t *testing.T) {
	srv := httptest.NewServer(HandlerWith(WriteSnapshot))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK || !strings.Contains(body, "caer_engine_ticks_total") {
		t.Errorf("/metrics: code %d, body %.80q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d, body %.80q", code, body)
	}
	if code, body := get("/debug/vars"); code != http.StatusOK || !strings.Contains(body, "cmdline") {
		t.Errorf("/debug/vars: code %d, body %.80q", code, body)
	}
	if code, body := get("/trace"); code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Errorf("/trace: code %d, body %.80q", code, body)
	}
	if code, _ := get("/nope"); code != http.StatusNotFound {
		t.Errorf("/nope: code %d, want 404", code)
	}
}

// serveGoroutines counts the server goroutines ServeWith has started and
// that have not exited yet.
func serveGoroutines() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by caer/internal/telemetry.ServeWith"))
}

// TestServe serves one scrape, then pins Serve's shutdown contract: closing
// the returned listener ends the server goroutine.
func TestServe(t *testing.T) {
	before := serveGoroutines()
	ln, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + ln.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics via Serve: code %d", resp.StatusCode)
	}
	if got := serveGoroutines(); got != before+1 {
		t.Fatalf("%d server goroutines while serving, want %d", got, before+1)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000 && serveGoroutines() != before; i++ {
		runtime.Gosched()
	}
	if got := serveGoroutines(); got != before {
		t.Fatalf("%d server goroutines after closing the listener, want %d", got, before)
	}
}

func TestMetricKindString(t *testing.T) {
	cases := map[MetricKind]string{
		KindCounter:    "counter",
		KindGauge:      "gauge",
		KindHistogram:  "histogram",
		MetricKind(99): "MetricKind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
}
