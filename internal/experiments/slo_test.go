package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSLORegimeSuite is the SLO ISSUE's headline acceptance check: the
// metrics-fed policy must match or beat least-pressure on the sensitive
// p99 at equal throughput with fresh-view decisions, a total scrape outage
// must degrade to least-pressure exactly, and the alert battery's seeded
// monitor outages must each raise exactly one firing episode with zero
// false positives — the gate caer-bench -slo enforces. TestRegimes pins
// BENCH_slo.json's digest and determinism; the doctor bundle's are here.
func TestSLORegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slo regime suite is slow; skipped in -short")
	}
	r := quickRun[SLORegime]("slo")

	if err := r.Check(); err != nil {
		t.Fatalf("slo gate: %v", err)
	}
	if got := len(r.Battery.Episodes); got != len(r.Battery.Windows) {
		t.Errorf("battery raised %d episodes for %d seeded windows", got, len(r.Battery.Windows))
	}
	for _, ep := range r.Battery.Episodes {
		if ep.Window < 0 {
			t.Errorf("episode %+v attributed to no seeded window", ep)
		}
		if ep.PeakBurn < 2 {
			t.Errorf("episode %+v fired below the burn threshold", ep)
		}
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"telemetry", "telemetry-outage", "alert battery"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered output missing %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded SLORegime
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded.Machines != r.Machines || len(decoded.Policies) != len(r.Policies) {
		t.Errorf("artifact round-trip mismatch: %+v", decoded)
	}

	// The doctor bundle the suite leaves next to the artifact must be
	// complete and non-empty — caer-doctor's whole input contract.
	dir := t.TempDir()
	if err := r.WriteDoctorBundle(dir); err != nil {
		t.Fatalf("WriteDoctorBundle: %v", err)
	}
	for _, name := range []string{
		"SLO_series.json", "SLO_objectives.json", "SLO_events.json", "SLO_trace.json",
	} {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil || st.Size() == 0 {
			t.Errorf("bundle file %s missing or empty (err %v)", name, err)
		}
	}
	checkGolden(t, "slo_quick_series", r.series)
	checkGolden(t, "slo_quick_events", r.events)
	checkGolden(t, "slo_quick_trace", r.trace)
}
