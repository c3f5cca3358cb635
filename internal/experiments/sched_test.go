package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSchedRegimeSuite is the ISSUE's headline acceptance check: on a
// 2-LLC-domain machine, contention-aware placement must achieve strictly
// lower latency-app QoS degradation than round-robin at equal admitted
// batch throughput, and the admission queue must never hold a job past its
// aging bound. SchedRegime.Check (what caer-bench -sched enforces at any
// seed) carries the throughput, aging and placement half; the strict QoS
// inequality is asserted here, at the golden seed. TestRegimes pins the
// artifact digest and determinism.
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
	rr, _ := r.Policy("round-robin")
	ca, _ := r.Policy("contention-aware")
	if !(ca.QoSDegradation < rr.QoSDegradation) {
		t.Errorf("contention-aware QoS degradation %.4f not strictly below round-robin %.4f",
			ca.QoSDegradation, rr.QoSDegradation)
	}
	// The placement signature: contention-aware keeps the latency domain
	// clear of lbm aggressors while round-robin splits admissions.
	if rr.DomainAdmissions[0] == 0 {
		t.Errorf("round-robin placed no jobs on the latency domain: %v", rr.DomainAdmissions)
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
