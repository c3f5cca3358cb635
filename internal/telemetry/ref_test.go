package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// This file keeps the fmt-shaped writer and the scanner-and-map parser the
// scrape path used before it was rewritten, verbatim, as the oracles the
// append-only writer and the one-pass parser are compared against (the
// role refHierarchy plays for the cache core): same bytes on the wire,
// same accept/reject set, same samples.

// refWritePrometheus is the previous WritePrometheus body.
func refWritePrometheus(r *Registry, out io.Writer) error {
	var w strings.Builder
	r.mu.Lock()
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()

	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	formatValue := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	joinLabels := func(labels, extra string) string {
		if labels == "" {
			return "{" + extra + "}"
		}
		return labels[:len(labels)-1] + "," + extra + "}"
	}
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			fmt.Fprintf(&w, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(&w, "# TYPE %s %s\n", m.name, m.kind)
			lastFamily = m.name
		}
		switch m.kind {
		case KindCounter:
			fmt.Fprintf(&w, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case KindGauge:
			fmt.Fprintf(&w, "%s%s %s\n", m.name, m.labels, formatValue(m.g.Value()))
		case KindHistogram:
			h := m.h
			cum := h.under.Load()
			for i := range h.buckets {
				cum += h.buckets[i].Load()
				le := formatValue(h.min + float64(i+1)*h.width)
				fmt.Fprintf(&w, "%s_bucket%s %d\n", m.name, joinLabels(m.labels, `le="`+le+`"`), cum)
			}
			cum += h.over.Load()
			fmt.Fprintf(&w, "%s_bucket%s %d\n", m.name, joinLabels(m.labels, `le="+Inf"`), cum)
			fmt.Fprintf(&w, "%s_sum%s %s\n", m.name, m.labels, formatValue(h.Sum()))
			fmt.Fprintf(&w, "%s_count%s %d\n", m.name, m.labels, h.Count())
		default:
			panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(m.kind)))
		}
	}
	_, err := io.WriteString(out, w.String())
	return err
}

// refTextMetric is the previous TextMetric: labels as a map per sample.
type refTextMetric struct {
	Name   string
	Labels map[string]string // nil when the series has no labels
	Value  float64
}

// refParseText is the previous ParseText.
func refParseText(r io.Reader) ([]refTextMetric, error) {
	var out []refTextMetric
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m, err := refParseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: text line %d: %w", lineNo, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: scan text: %w", err)
	}
	return out, nil
}

func refParseSample(line string) (refTextMetric, error) {
	var m refTextMetric
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		m.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := refParseLabels(rest[i+1 : end])
		if err != nil {
			return m, err
		}
		m.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return m, fmt.Errorf("want `name value`, got %q", line)
		}
		m.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return m, fmt.Errorf("bad value in %q: %w", line, err)
	}
	m.Value = v
	return m, nil
}

func refParseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for s = strings.TrimSpace(s); s != ""; {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label pair near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		valEnd := -1
		for i := eq + 2; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				valEnd = i
				break
			}
		}
		if valEnd < 0 {
			return nil, fmt.Errorf("unterminated label value near %q", s)
		}
		val, err := strconv.Unquote(s[eq+1 : valEnd+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value near %q: %w", s, err)
		}
		labels[key] = val
		s = strings.TrimSpace(s[valEnd+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}

// labelMap expands a parsed sample's rendered label set the way the
// reference parser stored it: one map entry per key, last value wins.
func labelMap(m TextMetric) map[string]string {
	out := map[string]string{}
	m.EachLabel(func(k, v string) { out[k] = v })
	return out
}

// checkParseAgainstRef parses data with both parsers and fails unless they
// agree on accept/reject and, when accepted, on every sample's name, value
// and label set, read both as a whole and key by key through Label. It
// returns the new parser's result.
func checkParseAgainstRef(t testing.TB, data []byte) ([]TextMetric, error) {
	t.Helper()
	got, err := ParseText(bytes.NewReader(data))
	want, refErr := refParseText(bytes.NewReader(data))
	if (err == nil) != (refErr == nil) {
		t.Fatalf("accept/reject differs: new err %v, ref err %v\ninput %q", err, refErr, data)
	}
	if err != nil {
		return nil, err
	}
	if len(got) != len(want) {
		t.Fatalf("new parser found %d samples, ref %d\ninput %q", len(got), len(want), data)
	}
	for i, w := range want {
		g := got[i]
		if g.Name != w.Name || !(g.Value == w.Value || (math.IsNaN(g.Value) && math.IsNaN(w.Value))) {
			t.Fatalf("sample %d: new %q=%v, ref %q=%v", i, g.Name, g.Value, w.Name, w.Value)
		}
		labels := labelMap(g)
		if len(labels) != len(w.Labels) {
			t.Fatalf("sample %d: new labels %q, ref %q", i, labels, w.Labels)
		}
		for k, v := range w.Labels {
			if labels[k] != v || g.Label(k) != v {
				t.Fatalf("sample %d label %q: new %q (Label: %q), ref %q", i, k, labels[k], g.Label(k), v)
			}
		}
	}
	return got, nil
}

// checkWriteAgainstRef renders r with both writers and fails on any byte
// of difference. It returns the rendered snapshot.
func checkWriteAgainstRef(t testing.TB, r *Registry) []byte {
	t.Helper()
	var got, want bytes.Buffer
	if err := r.WritePrometheus(&got); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := refWritePrometheus(r, &want); err != nil {
		t.Fatalf("refWritePrometheus: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("writer differs from the reference\n--- new\n%s\n--- ref\n%s", got.Bytes(), want.Bytes())
	}
	return got.Bytes()
}

// TestWritePrometheusMatchesReference byte-compares the cached, append-only
// writer with the fmt-shaped one it replaced on every registry shape the
// repo renders. (A fleet node's registry mid-run is node_test.go's case: it
// has to sit outside the package to import internal/fleet.)
func TestWritePrometheusMatchesReference(t *testing.T) {
	t.Run("default spine", func(t *testing.T) {
		PMUReads.Inc()
		if snap := checkWriteAgainstRef(t, defaultRegistry); len(snap) == 0 {
			t.Fatal("default spine rendered empty")
		}
	})
	t.Run("empty registry", func(t *testing.T) {
		if snap := checkWriteAgainstRef(t, NewRegistry()); len(snap) != 0 {
			t.Fatalf("empty registry rendered %q", snap)
		}
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
		r0.Histogram("caer_fleet_request_latency_periods", "latency", 0, 4096, 256, "service", "mcf").Observe(77)
		merged := NewRegistry()
		merged.Union(r0, "machine", "0")
		merged.Union(r1, "machine", "1")
		checkWriteAgainstRef(t, merged)
	})
	t.Run("label values that need escaping", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("esc_total", "escapes", "path", `C:\tmp\"x"`, "note", "two\nlines, one\ttab").Add(2)
		r.Gauge("esc_depth", "utf-8 and commas", "who", "zoë,{}=", "raw", "\xff\x00").Set(-0.5)
		r.Histogram("esc_lat", "labelled buckets", 0, 1, 3, "q", `a"b`).Observe(0.4)
		snap := checkWriteAgainstRef(t, r)
		if _, err := checkParseAgainstRef(t, snap); err != nil {
			t.Fatalf("escaped snapshot does not parse: %v", err)
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
		checkWriteAgainstRef(t, r)
	})
	t.Run("late registration rebuilds the table", func(t *testing.T) {
		r := NewRegistry()
		r.Counter("m_total", "middle").Inc()
		h := r.Histogram("m_lat", "latency", 0, 8, 4)
		before := checkWriteAgainstRef(t, r)
		// A family that sorts first, a series that joins an existing family
		// ahead of its first member (so the HELP line moves), and values that
		// changed under the cached table.
		r.Counter("a_total", "first").Add(9)
		r.Counter("m_total", "other help", "k", "v").Inc()
		h.Observe(3)
		after := checkWriteAgainstRef(t, r)
		if bytes.Equal(before, after) || !bytes.HasPrefix(after, []byte("# HELP a_total first\n")) {
			t.Fatalf("late registrations did not reach the exposition:\n%s", after)
		}
		// Union grows the registry through registerRendered.
		src := NewRegistry()
		src.Counter("u_total", "one").Inc()
		r.Union(src, "machine", "3")
		if snap := checkWriteAgainstRef(t, r); !bytes.Contains(snap, []byte(`u_total{machine="3"} 1`)) {
			t.Fatalf("union after a write did not reach the exposition:\n%s", snap)
		}
	})
}

// TestWritePrometheusConcurrent drives the writer from several goroutines
// while others move values and register new series: under -race this pins
// that the cached table, the pooled buffer and the one Write outside the
// lock share nothing unsynchronized; every snapshot must parse, and once
// the writers stop the exposition equals the reference again.
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
	snap := checkWriteAgainstRef(t, r)
	if n := bytes.Count(snap, []byte("conc_late_total{")); n != rounds {
		t.Fatalf("%d of %d late series reached the exposition", n, rounds)
	}
}

// TestWritePrometheusAllocs pins the steady-state writer: the render buffer
// is pooled and everything else is cached, so a scrape into a reused
// bytes.Buffer allocates nothing (one is allowed for a pool refill after a
// GC; the race detector drops pooled items at random, so the count is only
// asserted without it).
func TestWritePrometheusAllocs(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "events", "mode", "x").Add(3)
	r.Gauge("g", "depth").Set(1.5)
	r.Histogram("h", "latency", 0, 4096, 256, "service", "mcf").Observe(100)
	var buf bytes.Buffer
	write := func() {
		buf.Reset()
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
	}
	write() // builds the table, sizes both buffers
	n := testing.AllocsPerRun(100, write)
	if raceEnabled {
		t.Skipf("race detector drops pooled buffers at random (measured %v allocs/op)", n)
	}
	if n > 1 {
		t.Fatalf("steady-state WritePrometheus allocates %v/op, want <= 1", n)
	}
}

// TestSnapshotFileParses feeds the snapshot file named by CAER_SNAPSHOT
// (check.sh passes the -telemetry-out artifact CI uploads) through the
// parser the fleet scrapes with, next to the reference. Skipped when the
// variable is unset.
func TestSnapshotFileParses(t *testing.T) {
	path := os.Getenv("CAER_SNAPSHOT")
	if path == "" {
		t.Skip("CAER_SNAPSHOT names no snapshot file")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := checkParseAgainstRef(t, data)
	if err != nil {
		t.Fatalf("%s does not parse: %v", path, err)
	}
	if len(ms) == 0 {
		t.Fatalf("%s holds no samples", path)
	}
	t.Logf("%s: %d samples", path, len(ms))
}

// TestParseTextLineLimit pins the one bound the scanner-based parser
// imposed that the format itself does not: a line of 1 MiB or more rejects
// the snapshot, one byte less is read.
func TestParseTextLineLimit(t *testing.T) {
	long := func(n int) []byte {
		line := append([]byte("# "), bytes.Repeat([]byte{'x'}, n-2)...)
		return append(line, "\nok 1\n"...)
	}
	if ms, err := checkParseAgainstRef(t, long(maxTextLine-1)); err != nil || len(ms) != 1 {
		t.Fatalf("line of maxTextLine-1 bytes: %d samples, err %v", len(ms), err)
	}
	if _, err := checkParseAgainstRef(t, long(maxTextLine)); err == nil {
		t.Fatal("line of maxTextLine bytes accepted")
	}
}

// TestAppendSamplesReusesDst pins the scraper-facing contract: samples are
// appended to dst, and a malformed snapshot returns dst as it was handed in.
func TestAppendSamplesReusesDst(t *testing.T) {
	dst := make([]TextMetric, 0, 8)
	ms, err := AppendSamples(dst, "a 1\nb{k=\"v\"} 2\n")
	if err != nil || len(ms) != 2 || &ms[0] != &dst[:1][0] {
		t.Fatalf("AppendSamples = %v, %v; want 2 samples in dst's array", ms, err)
	}
	if ms[1].Label("k") != "v" || ms[1].Label("missing") != "" {
		t.Fatalf("labels of %+v", ms[1])
	}
	kept, err := AppendSamples(ms, "c 3\nbroken\n")
	if err == nil || len(kept) != 2 {
		t.Fatalf("malformed snapshot: %d samples, err %v; want dst unextended and an error", len(kept), err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := AppendSamples(dst, "a 1\nb{k=\"v\",le=\"+Inf\"} 2\n"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendSamples into a sized dst allocates %v/op, want 0", n)
	}
}
