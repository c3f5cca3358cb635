package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSchedRegimeSuite is the ISSUE's headline acceptance check: on a
// 2-LLC-domain machine, contention-aware placement must keep batch jobs off
// the latency service's domain at equal admitted throughput, and the
// admission queue must never hold a job past its aging bound — the gate
// caer-bench -sched enforces (SchedRegime.Check) — plus the placement
// signature behind it. TestRegimes pins the artifact digest and determinism.
func TestSchedRegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduler regime suite is slow; skipped in -short")
	}
	r := quickRun[SchedRegime]("sched")

	if err := r.Check(); err != nil {
		t.Fatalf("scheduler gate: %v", err)
	}
	for _, p := range r.Policies {
		if p.QoSDegradation < 1 {
			t.Errorf("%s: QoS degradation %.4f below 1 (faster than jobs-free baseline?)", p.Name, p.QoSDegradation)
		}
	}
	if pm, _ := r.Policy("packed+migration"); pm.Migrations == 0 {
		t.Error("packed+migration row recorded no migrations")
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "contention-aware") {
		t.Errorf("rendered table missing policy rows:\n%s", buf.String())
	}

	buf.Reset()
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded SchedRegime
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded.BaselinePeriods != r.BaselinePeriods || len(decoded.Policies) != len(r.Policies) {
		t.Errorf("artifact round-trip mismatch: %+v", decoded)
	}
}
