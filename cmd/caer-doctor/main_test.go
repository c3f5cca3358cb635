package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"caer/internal/fleet"
	"caer/internal/sched"
	"caer/internal/slo"
	"caer/internal/telemetry"
)

// childEnv makes the test binary run caer-doctor's main over its own
// arguments, so a test can read the exit status and stderr a user sees.
const childEnv = "CAER_DOCTOR_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeBundle builds a synthetic doctor bundle in dir: a counter that
// bursts over periods [100, 200) against a 0.25/period budget (burn 4x),
// a sparse-probed monitor lane, a degraded span covering the burst, and a
// two-decision fleet log.
func writeBundle(t *testing.T, dir string) {
	t.Helper()
	reg := telemetry.NewRegistry()
	c := reg.Counter("caer_test_degraded_total", "synthetic degraded ticks")
	s := telemetry.NewSeries(reg, 512)
	for p := 0; p < 300; p++ {
		if p >= 100 && p < 200 {
			c.Inc()
		}
		s.Sample()
	}
	var buf bytes.Buffer
	if err := s.WriteDump(&buf); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	mustWrite(t, filepath.Join(dir, "SLO_series.json"), buf.Bytes())

	objs := []slo.Objective{{
		Name: "degraded-budget", Metric: "caer_test_degraded_total",
		Kind: slo.KindBudget, Budget: 0.25, Window: 64,
	}}
	mustWrite(t, filepath.Join(dir, "SLO_objectives.json"), mustJSON(t, objs))

	events := fleet.EventsDump{
		Policy: "telemetry", Ticks: 300,
		Fleet: []fleet.Decision{
			{Tick: 90, Kind: fleet.DecisionDispatch, Job: 0, Name: "lbm", From: -1, To: 0, Fresh: true},
			{Tick: 120, Kind: fleet.DecisionDispatch, Job: 1, Name: "lbm", From: -1, To: 0},
		},
		Machines: [][]sched.Decision{{
			{Period: 95, Kind: sched.DecisionAdmit, Job: 0, Name: "lbm"},
		}},
	}
	mustWrite(t, filepath.Join(dir, "SLO_events.json"), mustJSON(t, events))

	trace := []telemetry.ChromeEvent{
		{Name: "thread_name", Phase: "M", Tid: 7, Args: map[string]any{"name": "latency/mcf"}},
		{Name: "probe", Phase: "X", Tid: 7, Ts: 90 * periodMicros, Dur: 2 * periodMicros},
		{Name: "degraded", Phase: "X", Tid: 7, Ts: 100 * periodMicros, Dur: 100 * periodMicros,
			Args: map[string]any{"value": 1.0}},
	}
	var tb bytes.Buffer
	if err := telemetry.WriteChromeTrace(&tb, trace); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	mustWrite(t, filepath.Join(dir, "SLO_trace.json"), tb.Bytes())
}

func mustWrite(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string)
	go func() {
		var sb strings.Builder
		io.Copy(&sb, r)
		done <- sb.String()
	}()
	fn()
	w.Close()
	return <-done
}

// TestDoctorDiagnosesBundle drives the doctor's whole pipeline — load,
// replay, diagnose — over a synthetic bundle and checks the printed causal
// chain names the violation, the burn window, the smoking-gun span, the
// probe silence, and the joined decisions.
func TestDoctorDiagnosesBundle(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)

	series := loadSeries(filepath.Join(dir, "SLO_series.json"))
	objectives := loadObjectives(filepath.Join(dir, "SLO_objectives.json"))
	events := loadEvents(filepath.Join(dir, "SLO_events.json"))
	spans, lanes := loadTrace(filepath.Join(dir, "SLO_trace.json"))
	if events == nil || spans == nil {
		t.Fatal("optional bundle files did not load")
	}
	if lanes[7] != "latency/mcf" {
		t.Fatalf("lane map %v missing thread_name join", lanes)
	}

	reports, err := slo.Replay(series, objectives)
	if err != nil {
		t.Fatal(err)
	}
	var episodes int
	out := captureStdout(t, func() {
		for _, r := range reports {
			for _, ep := range r.Episodes {
				episodes++
				diagnose(episodes, r, ep, series, events, spans, lanes, 64)
			}
		}
	})
	if episodes != 1 {
		t.Fatalf("replay found %d episodes, want 1", episodes)
	}
	for _, want := range []string{
		"VIOLATION 1: degraded-budget firing",
		"rate(caer_test_degraded_total) < 0.25/period",
		"burn window:",
		"degraded span on latency/mcf",
		"monitor mostly silent on latency/mcf",
		"fleet decisions in window: 2",
		"fresh telemetry view",
		"stale/synchronous view",
		"m0 scheduler decisions in window: 1 admit",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnosis missing %q:\n%s", want, out)
		}
	}
}

// TestDoctorOptionalFilesAbsent pins the events/trace files as optional:
// missing paths load as nil and the diagnosis still runs on series alone.
func TestDoctorOptionalFilesAbsent(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir)
	if ev := loadEvents(filepath.Join(dir, "nope.json")); ev != nil {
		t.Error("missing events file did not load as nil")
	}
	spans, lanes := loadTrace(filepath.Join(dir, "nope.json"))
	if spans != nil || lanes != nil {
		t.Error("missing trace file did not load as nil")
	}
	series := loadSeries(filepath.Join(dir, "SLO_series.json"))
	objectives := loadObjectives(filepath.Join(dir, "SLO_objectives.json"))
	reports, err := slo.Replay(series, objectives)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		for _, r := range reports {
			for i, ep := range r.Episodes {
				diagnose(i+1, r, ep, series, nil, nil, nil, 64)
			}
		}
	})
	if !strings.Contains(out, "VIOLATION 1") || strings.Contains(out, "trace:") {
		t.Errorf("series-only diagnosis wrong:\n%s", out)
	}
}

func TestCountLineDeterministic(t *testing.T) {
	in := map[string]int{"admit": 3, "complete": 2, "migrate": 1}
	want := "3 admit, 2 complete, 1 migrate"
	for i := 0; i < 16; i++ {
		if got := countLine(in); got != want {
			t.Fatalf("countLine = %q, want %q", got, want)
		}
	}
}

func TestLabelSuffix(t *testing.T) {
	if got := labelSuffix(nil); got != "" {
		t.Errorf("empty selector rendered %q", got)
	}
	if got := labelSuffix([]string{"service", "mcf"}); got != `{service="mcf"}` {
		t.Errorf("selector rendered %q", got)
	}
}

// TestDoctorRejectsBadObjectives: an objectives file the series cannot
// evaluate — a metric the dump never recorded, a zero window — makes the
// doctor exit 1 with one caer-doctor error line, not a panic.
func TestDoctorRejectsBadObjectives(t *testing.T) {
	cases := map[string]struct {
		obj  slo.Objective
		want string
	}{
		"unknown metric": {slo.Objective{Name: "degraded-budget", Metric: "caer_no_such_metric",
			Kind: slo.KindBudget, Budget: 0.25, Window: 64},
			"caer-doctor: slo: objective degraded-budget watches unregistered series caer_no_such_metric[]\n"},
		"zero window": {slo.Objective{Name: "degraded-budget", Metric: "caer_test_degraded_total",
			Kind: slo.KindBudget, Budget: 0.25},
			"caer-doctor: slo: objective degraded-budget needs a positive window\n"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			writeBundle(t, dir)
			mustWrite(t, filepath.Join(dir, "SLO_objectives.json"), mustJSON(t, []slo.Objective{c.obj}))
			cmd := exec.Command(os.Args[0], "-dir", dir)
			cmd.Env = append(os.Environ(), childEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
				t.Fatalf("exit: %v, want status 1; stderr:\n%s", err, stderr.String())
			}
			if stderr.String() != c.want || stdout.Len() != 0 {
				t.Fatalf("stderr %q, stdout %q; want stderr %q and no stdout", stderr.String(), stdout.String(), c.want)
			}
		})
	}
}
