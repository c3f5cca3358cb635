package telemetry

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzParseText fuzzes the Prometheus text reader caer-top and the CI
// telemetry smoke depend on. Seeds cover the writer's own output (the
// golden corpus: whatever WriteSnapshot emits must stay parseable) plus
// labeled, escaped, and malformed shapes.
//
// Invariants: ParseText never panics, and any accepted input re-renders
// through renderTextMetric into an equivalent parse (writer/parser
// round-trip, generalized to arbitrary accepted inputs).
func FuzzParseText(f *testing.F) {
	// Live snapshot of the default registry — the real exposition format.
	PMUReads.Inc()
	var snap bytes.Buffer
	if err := WriteSnapshot(&snap); err != nil {
		f.Fatalf("snapshot seed: %v", err)
	}
	f.Add(snap.Bytes())
	f.Add([]byte("caer_pmu_reads_total 42\n"))
	f.Add([]byte(`caer_runner_runs_total{mode="caer"} 3` + "\n"))
	f.Add([]byte(`m{k="a\"b\\c",k2="v2"} 1.5e-9` + "\n# HELP m help\n# TYPE m counter\n"))
	f.Add([]byte("name_only\n"))
	f.Add([]byte(`unterminated{k="v 1`))
	f.Add([]byte("nan_val NaN\ninf_val +Inf\n"))
	f.Add([]byte("\n\n  # only comments\n"))
	f.Add([]byte(`dup{k="first",k="last"} 1` + "\n" + `loose{ a = "1" b="2",,c="\u00e9\xff" }` + "\t2\r\n"))
	f.Add([]byte("{}0"))
	f.Add([]byte("nbsp\u00a0name\u00851\nbrace } {x=\"}\"} 0x1p-2\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		metrics, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic invariant applies
		}
		// Round-trip: re-render every accepted sample and parse it back.
		var buf bytes.Buffer
		for _, m := range metrics {
			renderTextMetric(&buf, m)
		}
		back, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-render of accepted input failed to parse: %v\nrendered:\n%s", err, buf.String())
		}
		if len(back) != len(metrics) {
			t.Fatalf("round-trip changed sample count: %d -> %d\nrendered:\n%s", len(metrics), len(back), buf.String())
		}
		for i := range metrics {
			if !textMetricEqual(metrics[i], back[i]) {
				t.Fatalf("round-trip changed sample %d: %+v -> %+v", i, metrics[i], back[i])
			}
		}
	})
}

// renderTextMetric writes one sample the way WritePrometheus does:
// name{k="v",...} value, labels sorted for determinism. The braces are
// always there, so a sample with an empty name (`{}0`) re-renders parseably.
func renderTextMetric(buf *bytes.Buffer, m TextMetric) {
	keys := make([]string, 0, len(m.Labels))
	for k := range m.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf.WriteString(m.Name)
	buf.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(buf, "%s=%s", k, strconv.Quote(m.Labels[k]))
	}
	buf.WriteString("} ")
	buf.WriteString(strconv.FormatFloat(m.Value, 'g', -1, 64))
	buf.WriteByte('\n')
}

func textMetricEqual(a, b TextMetric) bool {
	if strings.TrimSpace(a.Name) != strings.TrimSpace(b.Name) {
		return false
	}
	if !(a.Value == b.Value || (math.IsNaN(a.Value) && math.IsNaN(b.Value))) {
		return false
	}
	return maps.Equal(a.Labels, b.Labels) // a nil set equals an empty one
}

// FuzzParseChromeTrace fuzzes the Chrome trace-event reader: caer-doctor
// reads trace files from outside the process through it. Seeds are a
// SpanRecorder export (the one exporter's real shape: thread-name metadata
// plus "X" spans) and hand-written documents, including a legacy "ph":"C"
// counter trace of the kind the deleted counter-track exporter wrote, so
// old files still parse.
//
// Invariants: ParseChromeTrace never panics, ArgNumber tolerates any args
// shape, and an accepted trace survives a re-encode/re-parse cycle with the
// same events per phase.
func FuzzParseChromeTrace(f *testing.F) {
	rec, _ := newTestRecorder(16)
	rec.NameTrack(0, "latency/mcf")
	rec.NameTrack(1, "batch/lbm")
	rec.Record(0, SpanProbe, 0, 1, 900)
	rec.Record(1, SpanPublish, 0, 1, 30)
	rec.Record(1, SpanDetect, 1, 4, 1)
	rec.Record(1, SpanHold, 5, 80, 1)
	var export bytes.Buffer
	if err := rec.WriteChrome(&export); err != nil {
		f.Fatalf("seed export: %v", err)
	}
	f.Add(export.Bytes())
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"thread_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"core1"}},` +
		`{"name":"pmu","ph":"C","ts":1000,"pid":1,"tid":1,"args":{"instructions":2500,"llc_misses":900}},` +
		`{"name":"paused","ph":"X","ts":1000,"dur":2000,"pid":1,"tid":1}],"displayTimeUnit":"ms"}`))
	f.Add([]byte(`{"traceEvents":[{"name":"hold","ph":"X","ts":0,"dur":3000,"pid":1,"tid":1,"args":{"value":1}}],"displayTimeUnit":"ms"}`))
	f.Add([]byte(`{"traceEvents":[{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core0"}}]}`))
	f.Add([]byte(`{"traceEvents": null}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"traceEvents":[{"ts":"not a number"}]}`))

	phases := func(events []ChromeEvent) map[string]int {
		n := make(map[string]int)
		for _, e := range events {
			n[e.Phase]++
			_ = e.ArgNumber("value")
			_ = e.ArgNumber("llc_misses")
		}
		return n
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseChromeTrace(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only the no-panic invariant applies
		}
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
		back, err := ParseChromeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-parse of re-encoded trace failed: %v", err)
		}
		if got, want := phases(back), phases(events); !reflect.DeepEqual(got, want) {
			t.Fatalf("round-trip changed the events per phase: %v -> %v", want, got)
		}
	})
}

// TestParseChromeTraceLegacyCounters: a counter-track document as the
// deleted counter-track exporter wrote it still parses, args intact.
func TestParseChromeTraceLegacyCounters(t *testing.T) {
	doc := `{"traceEvents":[{"name":"pmu","ph":"C","ts":3000,"pid":1,"tid":1,"args":{"instructions":15001,"llc_misses":3001}}],"displayTimeUnit":"ms"}`
	events, err := ParseChromeTrace(strings.NewReader(doc))
	if err != nil || len(events) != 1 {
		t.Fatalf("legacy trace: %d events, err %v", len(events), err)
	}
	if e := events[0]; e.Phase != "C" || e.Ts != 3000 || e.ArgNumber("llc_misses") != 3001 || e.ArgNumber("instructions") != 15001 {
		t.Errorf("legacy counter event = %+v", e)
	}
}
