package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return doc
}

// TestTablesMatchBenchmarkJSON keeps the program's metric and workload
// tables and BENCHMARK.json from drifting apart.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestMetricNames(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s has malformed unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s has direction %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	// ISSUE 11 caps every bound at 10 %; set-up alone, microseconds for the
	// pairs, takes the contract's cap.
	for _, d := range endToEnd {
		limit := 0.10
		if d.Name == "setup_s" {
			limit = 0.25
		}
		if d.Bound <= 0 || d.Bound > limit {
			t.Errorf("end-to-end metric %s has bound %v outside (0, %v]", d.Name, d.Bound, limit)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
}

// TestSmoke runs every workload at 1/20 scale, two reps and the traced
// run, and checks that outputs verify, digests repeat, and every declared
// metric — and no other — is emitted.
func TestSmoke(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	o := options{names: names, seed: 1, seconds: 0.01, scale: 20, trace: true, reps: 2, outDir: t.TempDir()}
	rep, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		r := rep.Workloads[n]
		if !r.Correct || r.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", n, r.Failed, r.Attempted, r.FailedChecks)
		}
		if len(r.EndToEnd) != len(endToEnd) || len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: emitted %d end-to-end and %d per-layer metrics, declared %d and %d",
				n, len(r.EndToEnd), len(r.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, d := range endToEnd {
			if v, ok := r.EndToEnd[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", n, d.Name, v, ok)
			}
		}
		for _, d := range perLayer {
			if v, ok := r.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (present %v)", n, d.Name, v, ok)
			}
		}
		// run's own checks compare sim.digest over the reps and the traced rep.
		if r.PerLayer["sim.digest"].Value != float64(r.sim.digest()) || r.sim.digest() == 0 {
			t.Errorf("%s: sim.digest %v emitted, %x measured", n, r.PerLayer["sim.digest"].Value, r.sim.digest())
		}
		if _, err := os.Stat(r.TraceFile); err != nil {
			t.Errorf("%s: no Chrome trace: %v", n, err)
		}
		for _, trace := range []bool{false, true} {
			line, err := driverLine(r, trace)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil || len(got) != 4 {
				t.Errorf("%s: driver line has %d keys (%v): %s", n, len(got), err, line)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(wall, q1, q3 float64, digest float64) *report {
		r := &workloadResult{EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = metricValue{Value: 1, Unit: d.Unit, Q1: 1, Q3: 1, N: 7}
		}
		r.EndToEnd["wall_s"] = metricValue{Value: wall, Unit: "s", Q1: q1, Q3: q3, N: 7}
		for _, d := range perLayer {
			r.PerLayer[d.Name] = metricValue{Value: 1, Unit: d.Unit}
		}
		r.PerLayer["sim.digest"] = metricValue{Value: digest, Unit: "count"}
		return &report{Workloads: map[string]*workloadResult{"pair_miss": r}}
	}
	var b float64 // wall_s's bound
	for _, d := range endToEnd {
		if d.Name == "wall_s" {
			b = d.Bound
		}
	}
	cases := []struct {
		name      string
		old, new  *report
		regressed bool
		want      string
	}{
		{"within bound", mk(1, 0.99, 1.01, 7), mk(1+b/2, 1+b/2, 1+b/2, 7), false, "ok"},
		{"regression", mk(1, 0.99, 1.01, 7), mk(1+2*b, 1+2*b, 1+2*b, 7), true, "REGRESSION"},
		{"noisy side is unresolved", mk(1, 0.99, 1.01, 7), mk(1+2*b, 1, 1+4*b, 7), false, "unresolved"},
		{"improved", mk(1, 0.99, 1.01, 7), mk(1-2*b, 1-2*b, 1-2*b, 7), false, "improved"},
		{"digest change is not a failure", mk(1, 0.99, 1.01, 7), mk(1, 0.99, 1.01, 8), false, "sim-changed"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if got := compareReports(c.old, c.new, &buf); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v", c.name, got, c.regressed)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s: table lacks %q:\n%s", c.name, c.want, buf.String())
		}
	}
}

// TestCompareAllocSlack pins ISSUE 11's "1 % + 1" on the allocation metrics.
func TestCompareAllocSlack(t *testing.T) {
	var d metricDef
	for _, e := range endToEnd {
		if e.Name == "allocs_per_period" {
			d = e
		}
	}
	v := func(x float64) metricValue { return metricValue{Value: x, Q1: x, Q3: x, N: 7} }
	for _, c := range []struct {
		old, new float64
		want     string
	}{
		{0.07, 1.0, "ok"},         // under one allocation a period more
		{0.07, 1.2, "REGRESSION"}, // over it
		{900, 909, "ok"},          // 1 % is 9
		{900, 911, "REGRESSION"},  // 1 % + 1 is 10
		{900, 800, "improved"},
	} {
		if _, got := verdict(d, v(c.old), v(c.new)); got != c.want {
			t.Errorf("allocs_per_period %v -> %v: %s, want %s", c.old, c.new, got, c.want)
		}
	}
}
