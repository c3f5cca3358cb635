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
// aging bound.
func TestSchedRegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("scheduler regime suite is slow; skipped in -short")
	}
	r := SchedRegimeSuite(42, true)

	if r.BaselinePeriods == 0 {
		t.Fatal("baseline latency run never completed")
	}
	byName := map[string]SchedPolicyResult{}
	for _, p := range r.Policies {
		byName[p.Name] = p
		if p.JobsCompleted != p.JobsSubmitted {
			t.Errorf("%s: completed %d of %d jobs", p.Name, p.JobsCompleted, p.JobsSubmitted)
		}
		if p.MaxWait > r.AgingBound {
			t.Errorf("%s: job waited %d periods past aging bound %d", p.Name, p.MaxWait, r.AgingBound)
		}
		if p.QoSDegradation < 1 {
			t.Errorf("%s: QoS degradation %.4f below 1 (faster than jobs-free baseline?)", p.Name, p.QoSDegradation)
		}
	}

	rr, ok := byName["round-robin"]
	if !ok {
		t.Fatal("missing round-robin row")
	}
	ca, ok := byName["contention-aware"]
	if !ok {
		t.Fatal("missing contention-aware row")
	}
	// Equal admitted throughput (both drained the full job set) ...
	if rr.JobsCompleted != ca.JobsCompleted {
		t.Fatalf("throughput differs: round-robin %d vs contention-aware %d", rr.JobsCompleted, ca.JobsCompleted)
	}
	// ... and strictly lower QoS degradation for the contention-aware policy.
	if !(ca.QoSDegradation < rr.QoSDegradation) {
		t.Errorf("contention-aware QoS degradation %.4f not strictly below round-robin %.4f",
			ca.QoSDegradation, rr.QoSDegradation)
	}
	// The placement signature: contention-aware keeps the latency domain
	// clear of lbm aggressors while round-robin splits admissions.
	if rr.DomainAdmissions[0] == 0 {
		t.Errorf("round-robin placed no jobs on the latency domain: %v", rr.DomainAdmissions)
	}
	if pm := byName["packed+migration"]; pm.Migrations == 0 {
		t.Error("packed+migration row recorded no migrations")
	}

	// Determinism per seed.
	r2 := SchedRegimeSuite(42, true)
	for i, p := range r.Policies {
		q := r2.Policies[i]
		if p.Periods != q.Periods || p.JobsCompleted != q.JobsCompleted ||
			p.MaxWait != q.MaxWait || p.Migrations != q.Migrations {
			t.Errorf("seed 42 not deterministic for %s: %+v vs %+v", p.Name, p, q)
		}
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "contention-aware") {
		t.Errorf("rendered table missing policy rows:\n%s", buf.String())
	}

	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded SchedRegime
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded.BaselinePeriods != r.BaselinePeriods || len(decoded.Policies) != len(r.Policies) {
		t.Errorf("artifact round-trip mismatch: %+v", decoded)
	}
	checkGolden(t, "sched_quick", buf.Bytes())
}
