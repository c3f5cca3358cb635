package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestPartitionSuite is the response-family acceptance check (DESIGN.md
// §16): against capacity-thief co-runners, the partition response must
// strictly beat both pure-throttling responses on latency-app QoS
// degradation while finishing the batch set earlier, at equal admitted
// throughput — the suite's Check() is the CI gate, so it is asserted
// directly here too. TestRegimes pins the artifact digest and determinism
// (its workers=4 run under -race audits the mask-resize path).
func TestPartitionSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("partition regime suite is slow; skipped in -short")
	}
	r := quickRun[PartitionRegime]("partition")

	if r.BaselinePeriods == 0 {
		t.Fatal("baseline latency run never completed")
	}
	if err := r.Check(); err != nil {
		t.Fatalf("suite gate: %v", err)
	}

	part, ok := r.Config("partition")
	if !ok {
		t.Fatal("missing partition row")
	}
	// Pure partitioning never pauses a core outright: its duty must exceed
	// every throttling row's (the batch side keeps running, just confined).
	for _, name := range []string{"red-light-green-light", "soft-lock"} {
		thr, ok := r.Config(name)
		if !ok {
			t.Fatalf("missing %s row", name)
		}
		if part.BatchDuty <= thr.BatchDuty {
			t.Errorf("partition batch duty %.4f not above %s at %.4f",
				part.BatchDuty, name, thr.BatchDuty)
		}
	}
	// The hybrid row throttles on top of partitioning, so it can never
	// finish the batch sooner than pure partitioning.
	if hy, ok := r.Config("hybrid"); ok {
		if hy.BatchMakespan < part.BatchMakespan {
			t.Errorf("hybrid makespan %d below pure partition %d", hy.BatchMakespan, part.BatchMakespan)
		}
	} else {
		t.Error("missing hybrid row")
	}
	for _, c := range r.Configs {
		if c.QoSDegradation < 1 {
			t.Errorf("%s: QoS degradation %.4f below 1 (faster than jobs-free baseline?)", c.Name, c.QoSDegradation)
		}
		if c.CPositive == 0 {
			t.Errorf("%s: no contention verdicts — the scenario exercised nothing", c.Name)
		}
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	for _, want := range []string{"partition", "soft-lock", "red-light-green-light", "hybrid"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered table missing %s row:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded PartitionRegime
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded.BaselinePeriods != r.BaselinePeriods || len(decoded.Configs) != len(r.Configs) {
		t.Errorf("artifact round-trip mismatch: %+v", decoded)
	}
}
