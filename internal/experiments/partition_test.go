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
// directly here too.
func TestPartitionSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("partition regime suite is slow; skipped in -short")
	}
	r := PartitionSuite(42, true)

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

	// Determinism per seed.
	r2 := PartitionSuite(42, true)
	for i, c := range r.Configs {
		q := r2.Configs[i]
		if c != q && len(r2.Configs) == len(r.Configs) {
			t.Errorf("seed 42 not deterministic for %s: %+v vs %+v", c.Name, c, q)
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
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded PartitionRegime
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded.BaselinePeriods != r.BaselinePeriods || len(decoded.Configs) != len(r.Configs) {
		t.Errorf("artifact round-trip mismatch: %+v", decoded)
	}
	checkGolden(t, "partition_quick", buf.Bytes())
}

// TestPartitionByteIdenticalAcrossWorkers extends the determinism contract
// to the partition response: resizing per-owner way masks mid-run must not
// perturb the parallel domain stepper, so the same seed yields a
// byte-identical BENCH_partition.json at Workers=1 and Workers=4. Runs
// under -race via check.sh, which doubles as the data-race audit of the
// resize path.
func TestPartitionByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the partition regime suite twice; skipped in -short")
	}
	const seed = 11
	serial := PartitionSuiteWorkers(seed, true, 1)
	pooled := PartitionSuiteWorkers(seed, true, 4)

	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatalf("serial WriteJSON: %v", err)
	}
	if err := pooled.WriteJSON(&b); err != nil {
		t.Fatalf("pooled WriteJSON: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("BENCH_partition.json differs between Workers=1 and Workers=4:\n--- serial ---\n%s\n--- pooled ---\n%s",
			a.String(), b.String())
	}
}
