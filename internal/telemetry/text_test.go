package telemetry

import (
	"bytes"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// wantExposition renders r and fails unless the bytes equal want.
func wantExposition(t *testing.T, r *Registry, want string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if got := buf.String(); got != want {
		t.Fatalf("exposition differs\n--- got\n%s\n--- want\n%s", got, want)
	}
	return buf.Bytes()
}

// TestWritePrometheusMatchesReference pins the writer's exact bytes on
// every registry shape the repo renders; the expected text was recorded
// from the reference fmt writer. (A fleet node's registry mid-run is
// node_test.go's round trip.)
func TestWritePrometheusMatchesReference(t *testing.T) {
	t.Run("default spine", func(t *testing.T) {
		PMUReads.Inc()
		var buf bytes.Buffer
		if err := defaultRegistry.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		ms, err := ParseText(&buf)
		if err != nil || len(ms) == 0 {
			t.Fatalf("default spine: %d samples, err %v", len(ms), err)
		}
	})
	t.Run("empty registry", func(t *testing.T) {
		wantExposition(t, NewRegistry(), "")
	})
	t.Run("union with machine labels", func(t *testing.T) {
		r0, r1, c0, c1, g0, g1, h0, h1 := newFleetRegistries()
		c0.Add(3)
		c1.Add(5)
		g0.Set(2)
		g1.Set(7.25)
		h0.Observe(10)
		h0.Observe(250)
		h1.Observe(-1)
		r0.Histogram("caer_fleet_request_latency_periods", "latency", 0, 4096, 4, "service", "mcf").Observe(77)
		merged := NewRegistry()
		merged.Union(r0, "machine", "0")
		merged.Union(r1, "machine", "1")
		wantExposition(t, merged, `# HELP caer_fleet_node_dispatches_total jobs dispatched to this machine
# TYPE caer_fleet_node_dispatches_total counter
caer_fleet_node_dispatches_total{machine="0"} 3
caer_fleet_node_dispatches_total{machine="1"} 5
# HELP caer_fleet_node_queue_depth jobs waiting on this machine
# TYPE caer_fleet_node_queue_depth gauge
caer_fleet_node_queue_depth{machine="0"} 2
caer_fleet_node_queue_depth{machine="1"} 7.25
# HELP caer_fleet_node_sojourn_periods job sojourn
# TYPE caer_fleet_node_sojourn_periods histogram
caer_fleet_node_sojourn_periods_bucket{machine="0",le="10"} 0
caer_fleet_node_sojourn_periods_bucket{machine="0",le="20"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="30"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="40"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="50"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="60"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="70"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="80"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="90"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="100"} 1
caer_fleet_node_sojourn_periods_bucket{machine="0",le="+Inf"} 2
caer_fleet_node_sojourn_periods_sum{machine="0"} 260
caer_fleet_node_sojourn_periods_count{machine="0"} 2
caer_fleet_node_sojourn_periods_bucket{machine="1",le="10"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="20"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="30"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="40"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="50"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="60"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="70"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="80"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="90"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="100"} 1
caer_fleet_node_sojourn_periods_bucket{machine="1",le="+Inf"} 1
caer_fleet_node_sojourn_periods_sum{machine="1"} -1
caer_fleet_node_sojourn_periods_count{machine="1"} 1
# HELP caer_fleet_request_latency_periods latency
# TYPE caer_fleet_request_latency_periods histogram
caer_fleet_request_latency_periods_bucket{machine="0",service="mcf",le="1024"} 1
caer_fleet_request_latency_periods_bucket{machine="0",service="mcf",le="2048"} 1
caer_fleet_request_latency_periods_bucket{machine="0",service="mcf",le="3072"} 1
caer_fleet_request_latency_periods_bucket{machine="0",service="mcf",le="4096"} 1
caer_fleet_request_latency_periods_bucket{machine="0",service="mcf",le="+Inf"} 1
caer_fleet_request_latency_periods_sum{machine="0",service="mcf"} 77
caer_fleet_request_latency_periods_count{machine="0",service="mcf"} 1
`)
	})
	t.Run("label values that need escaping", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("esc_total", "escapes", "path", `C:\tmp\"x"`, "note", "two\nlines, one\ttab").Add(2)
		r.Gauge("esc_depth", "utf-8 and commas", "who", "zoë,{}=", "raw", "\xff\x00").Set(-0.5)
		r.Histogram("esc_lat", "labelled buckets", 0, 1, 3, "q", `a"b`).Observe(0.4)
		snap := wantExposition(t, r, `# HELP esc_depth utf-8 and commas
# TYPE esc_depth gauge
esc_depth{raw="\xff\x00",who="zoë,{}="} -0.5
# HELP esc_lat labelled buckets
# TYPE esc_lat histogram
esc_lat_bucket{q="a\"b",le="0.3333333333333333"} 0
esc_lat_bucket{q="a\"b",le="0.6666666666666666"} 1
esc_lat_bucket{q="a\"b",le="1"} 1
esc_lat_bucket{q="a\"b",le="+Inf"} 1
esc_lat_sum{q="a\"b"} 0.4
esc_lat_count{q="a\"b"} 1
# HELP esc_total escapes
# TYPE esc_total counter
esc_total{note="two\nlines, one\ttab",path="C:\\tmp\\\"x\""} 2
`)
		ms, err := ParseText(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("escaped snapshot does not parse: %v", err)
		}
		got := map[string]string{}
		for _, m := range ms {
			for k, v := range m.Labels {
				got[k] = v
			}
		}
		for k, want := range map[string]string{
			"path": `C:\tmp\"x"`, "note": "two\nlines, one\ttab", "who": "zoë,{}=", "raw": "\xff\x00", "q": `a"b`,
		} {
			if got[k] != want {
				t.Errorf("label %s parsed back as %q, want %q", k, got[k], want)
			}
		}
	})
	t.Run("non-finite gauges", func(t *testing.T) {
		r := NewRegistry()
		r.Gauge("nf", "not a number", "v", "nan").Set(math.NaN())
		r.Gauge("nf", "", "v", "+inf").Set(math.Inf(1))
		r.Gauge("nf", "", "v", "-inf").Set(math.Inf(-1))
		r.Gauge("nf", "", "v", "tiny").Set(5e-324)
		r.Gauge("nf", "", "v", "negzero").Set(math.Copysign(0, -1))
		r.Histogram("nf_lat", "overflowing sum", 0, 2, 2).Observe(math.Inf(1))
		r.Histogram("nf_frac", "edges that are no short decimals", 0.1, 0.7, 6).Observe(0.3)
		wantExposition(t, r, `# HELP nf 
# TYPE nf gauge
nf{v="+inf"} +Inf
nf{v="-inf"} -Inf
nf{v="nan"} NaN
nf{v="negzero"} -0
nf{v="tiny"} 5e-324
# HELP nf_frac edges that are no short decimals
# TYPE nf_frac histogram
nf_frac_bucket{le="0.2"} 0
nf_frac_bucket{le="0.3"} 0
nf_frac_bucket{le="0.4"} 1
nf_frac_bucket{le="0.5"} 1
nf_frac_bucket{le="0.6"} 1
nf_frac_bucket{le="0.7"} 1
nf_frac_bucket{le="+Inf"} 1
nf_frac_sum 0.3
nf_frac_count 1
# HELP nf_lat overflowing sum
# TYPE nf_lat histogram
nf_lat_bucket{le="1"} 0
nf_lat_bucket{le="2"} 0
nf_lat_bucket{le="+Inf"} 1
nf_lat_sum +Inf
nf_lat_count 1
`)
	})
}

// TestWritePrometheusConcurrent drives the writer from several goroutines
// while others move values and register new series: under -race this pins
// that the copied metric list and the one Write outside the lock share
// nothing unsynchronized; every snapshot must parse, and once the writers
// stop every late series is in the exposition.
func TestWritePrometheusConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "events")
	h := r.Histogram("conc_lat", "latency", 0, 64, 16, "service", "x")
	const writers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; i < rounds; i++ {
				buf.Reset()
				if err := r.WritePrometheus(&buf); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if _, err := ParseText(&buf); err != nil {
					t.Errorf("concurrent snapshot does not parse: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < writers*rounds; i++ {
			c.Inc()
			h.Observe(float64(i % 80))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			r.Counter("conc_late_total", "registered mid-scrape", "i", strconv.Itoa(i)).Inc()
		}
	}()
	wg.Wait()
	var snap strings.Builder
	if err := r.WritePrometheus(&snap); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(snap.String(), "conc_late_total{"); n != rounds {
		t.Fatalf("%d of %d late series reached the exposition", n, rounds)
	}
}

// TestSnapshotFileParses feeds the snapshot file named by CAER_SNAPSHOT
// (check.sh passes the -telemetry-out artifact CI uploads) through the
// parser. Skipped when the variable is unset.
func TestSnapshotFileParses(t *testing.T) {
	path := os.Getenv("CAER_SNAPSHOT")
	if path == "" {
		t.Skip("CAER_SNAPSHOT names no snapshot file")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, err := ParseText(f)
	if err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(ms) == 0 {
		t.Fatalf("%s holds no samples", path)
	}
	t.Logf("%s: %d samples", path, len(ms))
}

// TestParseTextLineLimit pins the one bound the parser's scanner imposes
// that the format itself does not: a line of 1 MiB or more rejects the
// snapshot, one byte less is read.
func TestParseTextLineLimit(t *testing.T) {
	const limit = 1 << 20
	long := func(n int) *bytes.Reader {
		line := append([]byte("# "), bytes.Repeat([]byte{'x'}, n-2)...)
		return bytes.NewReader(append(line, "\nok 1\n"...))
	}
	if ms, err := ParseText(long(limit - 1)); err != nil || len(ms) != 1 {
		t.Fatalf("line of 1 MiB - 1 bytes: %d samples, err %v", len(ms), err)
	}
	if _, err := ParseText(long(limit)); err == nil {
		t.Fatal("line of 1 MiB accepted")
	}
}
