package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"caer/internal/telemetry"
)

func sampleMetrics() []telemetry.TextMetric {
	lbm := map[string]string{"core": "1", "app": "lbm", "role": "batch"}
	return []telemetry.TextMetric{
		{Name: "caer_engine_ticks_total", Value: 420},
		{Name: "caer_engine_verdicts_total", Labels: map[string]string{"verdict": "contention"}, Value: 7},
		{Name: "caer_engine_verdicts_total", Labels: map[string]string{"verdict": "clear"}, Value: 13},
		{Name: "caer_engine_holds_total", Value: 3},
		{Name: "caer_pmu_reads_total", Value: 840},
		{Name: "caer_comm_publishes_total", Value: 840},
		{Name: "caer_comm_period", Value: 420},
		{Name: "caer_telemetry_ops_total", Value: 1700},
		{Name: "caer_core_pressure", Labels: map[string]string{"core": "0", "app": "mcf", "role": "latency"}, Value: 900},
		{Name: "caer_core_pressure", Labels: lbm, Value: 4500},
		{Name: "caer_core_directive", Labels: lbm, Value: 1},
		{Name: "caer_core_degraded", Labels: lbm, Value: 0},
	}
}

func TestRenderPerCoreView(t *testing.T) {
	var sb strings.Builder
	if err := render(&sb, "localhost:6060", sampleMetrics()); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"caer-top - localhost:6060",
		"420 ticks",
		"7 contention / 13 clear",
		"840 pmu reads",
		"mcf", "lbm",
		"pause", // core 1's directive gauge is 1
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// The latency core carries no directive gauge: shown as "-".
	mcfLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "mcf") {
			mcfLine = line
		}
	}
	if !strings.Contains(mcfLine, "-") {
		t.Errorf("latency core line should show '-' directive: %q", mcfLine)
	}
}

func TestRenderEmpty(t *testing.T) {
	var sb strings.Builder
	if err := render(&sb, "x", nil); err != nil {
		t.Fatalf("render: %v", err)
	}
	if !strings.Contains(sb.String(), "no per-core gauges yet") {
		t.Errorf("empty render should note missing gauges:\n%s", sb.String())
	}
}

func TestCollectCoresJoinsAndSorts(t *testing.T) {
	rows := collectCores(sampleMetrics())
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if rows[0].core != "0" || rows[1].core != "1" {
		t.Errorf("rows out of order: %v", rows)
	}
	if !rows[1].hasDir || rows[1].directive != 1 {
		t.Errorf("core 1 should join its directive gauge: %+v", rows[1])
	}
	if rows[0].hasDir {
		t.Errorf("latency core 0 should have no directive gauge: %+v", rows[0])
	}
}

func TestScrape(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("caer_engine_ticks_total 42\ncaer_core_pressure{core=\"0\",app=\"mcf\",role=\"latency\"} 17\n"))
	}))
	defer srv.Close()
	metrics, err := scrape(srv.Client(), srv.URL)
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	if len(metrics) != 2 {
		t.Fatalf("got %d metrics, want 2", len(metrics))
	}
	if metrics[1].Labels["app"] != "mcf" || metrics[1].Value != 17 {
		t.Errorf("unexpected metric: %+v", metrics[1])
	}
}

func TestScrapeErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := scrape(srv.Client(), srv.URL); err == nil {
		t.Fatal("scrape of 500 endpoint should error")
	}
}

// TestScrapeTimesOut: an endpoint that accepts the request and never
// answers fails the scrape within the client's timeout instead of hanging.
func TestScrapeTimesOut(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release) // runs before srv.Close, which waits on the handler

	const timeout = 100 * time.Millisecond
	client := srv.Client()
	client.Timeout = timeout
	start := time.Now()
	_, err := scrape(client, srv.URL)
	if err == nil {
		t.Fatal("scrape of a silent endpoint returned no error")
	}
	if took := time.Since(start); took > 20*timeout {
		t.Fatalf("scrape gave up after %v, want about %v", took, timeout)
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		interval   time.Duration
		iterations int
		ok         bool
	}{
		{time.Second, 0, true},
		{time.Millisecond, 3, true},
		{0, 1, false},
		{-time.Second, 1, false},
		{time.Second, -1, false},
	} {
		if err := checkFlags(tc.interval, tc.iterations); (err == nil) != tc.ok {
			t.Errorf("checkFlags(%v, %d) = %v, want ok=%v", tc.interval, tc.iterations, err, tc.ok)
		}
	}
}

func TestBar(t *testing.T) {
	if got := bar(0.5, 10); strings.Count(got, "█") != 5 {
		t.Errorf("bar(0.5,10) = %q", got)
	}
	if got := bar(2, 4); got != "████" {
		t.Errorf("bar clamps above 1: %q", got)
	}
	if got := bar(-1, 4); got != "····" {
		t.Errorf("bar clamps below 0: %q", got)
	}
}

// fleetMetrics is a 2-machine union snapshot with SLO families.
func fleetMetrics() []telemetry.TextMetric {
	// lbl builds a label set from alternating key, value arguments.
	lbl := func(kv ...string) map[string]string {
		labels := map[string]string{}
		for i := 0; i+1 < len(kv); i += 2 {
			labels[kv[i]] = kv[i+1]
		}
		return labels
	}
	return []telemetry.TextMetric{
		{Name: "caer_engine_ticks_total", Value: 99},
		{Name: "caer_core_pressure", Labels: lbl("machine", "0", "core", "0", "app", "mcf", "role", "latency"), Value: 700},
		{Name: "caer_core_pressure", Labels: lbl("machine", "0", "core", "1", "app", "lbm", "role", "batch"), Value: 4000},
		{Name: "caer_core_pressure", Labels: lbl("machine", "1", "core", "0", "app", "namd", "role", "latency"), Value: 120},
		{Name: "caer_slo_state", Labels: lbl("machine", "0", "slo", "latency-mcf"), Value: 2},
		{Name: "caer_slo_burn_fast", Labels: lbl("machine", "0", "slo", "latency-mcf"), Value: 3.5},
		{Name: "caer_slo_burn_slow", Labels: lbl("machine", "0", "slo", "latency-mcf"), Value: 2.25},
		{Name: "caer_slo_alerts_total", Labels: lbl("machine", "0", "slo", "latency-mcf"), Value: 1},
		{Name: "caer_slo_state", Labels: lbl("machine", "1", "slo", "latency-namd"), Value: 0},
		{Name: "caer_slo_evals_total", Labels: lbl("machine", "1"), Value: 99},
	}
}

func TestRenderFleetMode(t *testing.T) {
	var sb strings.Builder
	if err := render(&sb, "x", fleetMetrics()); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"machine",  // machine column header appears in fleet mode
		"m0", "m1", // group labels
		"alerts:", // alerts pane
		"latency-mcf", "firing", "3.50", "2.25",
		"latency-namd", "inactive",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fleet render missing %q:\n%s", want, out)
		}
	}
}

func TestFilterMachine(t *testing.T) {
	got := filterMachine(fleetMetrics(), "1")
	for _, m := range got {
		if v := m.Labels["machine"]; v != "" && v != "1" {
			t.Fatalf("filter kept machine %q: %+v", v, m)
		}
	}
	// Unlabelled spine metrics survive the filter.
	found := false
	for _, m := range got {
		if m.Name == "caer_engine_ticks_total" {
			found = true
		}
	}
	if !found {
		t.Error("filter dropped the unlabelled process-global series")
	}
	var sb strings.Builder
	if err := render(&sb, "x", got); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	if strings.Contains(out, "mcf") || !strings.Contains(out, "namd") {
		t.Errorf("-machine 1 view should show only machine 1:\n%s", out)
	}
}

func TestRenderNonFleetHasNoMachineColumn(t *testing.T) {
	var sb strings.Builder
	if err := render(&sb, "x", sampleMetrics()); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := sb.String()
	if strings.Contains(out, "machine") || strings.Contains(out, "alerts:") {
		t.Errorf("single-machine render grew fleet chrome:\n%s", out)
	}
}
