package experiments

import (
	"strings"
	"testing"

	"caer/internal/spec"
)

func ablationBench(t *testing.T) (s *Suite, bench spec.Profile) {
	t.Helper()
	s = smallSuite(t)
	return s, s.Benchmarks[0] // shrunken mcf
}

func TestPartitionSweepShape(t *testing.T) {
	s, mcf := ablationBench(t)
	a := s.PartitionSweep(mcf, []int{4, 8, 12})
	if len(a.Ways) != 3 {
		t.Fatalf("sweep rows = %d, want 3", len(a.Ways))
	}
	// More ways for the latency app -> less slowdown, monotonically.
	if !(a.Slowdown[0] >= a.Slowdown[1] && a.Slowdown[1] >= a.Slowdown[2]) {
		t.Errorf("partition slowdowns not monotone: %v", a.Slowdown)
	}
	// Any partition beats unmanaged sharing for this pair.
	if a.Slowdown[2] >= a.ColoSlowdown {
		t.Errorf("12-way partition (%.3f) not better than sharing (%.3f)", a.Slowdown[2], a.ColoSlowdown)
	}
	// Partitioning never throttles the batch.
	for i, d := range a.BatchDuty {
		if d < 0.95 {
			t.Errorf("partition %d ways: batch duty %.3f, want ~1", a.Ways[i], d)
		}
	}
	// CAER anchors present.
	if a.RuleSlowdown <= 1 || a.ShutterSlowdown <= 1 {
		t.Error("CAER anchor rows missing or nonsensical")
	}
	var sb strings.Builder
	if err := a.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "partition 8/8 ways") {
		t.Errorf("render missing partition rows:\n%s", sb.String())
	}
	if rows := tableRows(t, a.Table()); rows != 6 { // colo + 3 partitions + 2 CAER
		t.Errorf("table rows = %d, want 6", rows)
	}
}

func TestResponseComparisonShape(t *testing.T) {
	s, mcf := ablationBench(t)
	a := s.ResponseComparison(mcf)
	if len(a.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(a.Rows))
	}
	byName := map[string]ResponseRow{}
	for _, r := range a.Rows {
		byName[r.Name] = r
	}
	pause := byName["rule + soft lock (pause)"]
	dvfs8 := byName["rule + DVFS 1/8"]
	dvfs2 := byName["rule + DVFS 1/2"]
	// Down-clocking keeps the batch progressing faster than pausing...
	if dvfs2.BatchThroughput <= pause.BatchThroughput {
		t.Errorf("DVFS/2 batch throughput %.0f not above pause %.0f",
			dvfs2.BatchThroughput, pause.BatchThroughput)
	}
	// ...but protects the latency app less (or equal) at mild divisors.
	if dvfs2.Slowdown < pause.Slowdown-0.01 {
		t.Errorf("DVFS/2 slowdown %.3f unexpectedly below pause %.3f", dvfs2.Slowdown, pause.Slowdown)
	}
	// Deeper throttling protects at least as well as shallower.
	if dvfs8.Slowdown > dvfs2.Slowdown+0.01 {
		t.Errorf("DVFS/8 slowdown %.3f above DVFS/2 %.3f", dvfs8.Slowdown, dvfs2.Slowdown)
	}
	var sb strings.Builder
	if err := a.Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestTuningSweepFrontier(t *testing.T) {
	s, mcf := ablationBench(t)
	a := s.TuningSweep(mcf, []float64{0.05, 50}, []float64{50, 5000})
	if len(a.ShutterRows) != 2 || len(a.RuleRows) != 2 {
		t.Fatalf("sweep rows = %d/%d", len(a.ShutterRows), len(a.RuleRows))
	}
	// Loosening the rule threshold trades QoS for utilization.
	strict, loose := a.RuleRows[0], a.RuleRows[1]
	if loose.UtilizationGained < strict.UtilizationGained {
		t.Errorf("loose threshold gained less utilization (%.3f) than strict (%.3f)",
			loose.UtilizationGained, strict.UtilizationGained)
	}
	if loose.Slowdown < strict.Slowdown-0.01 {
		t.Errorf("loose threshold slowdown %.3f below strict %.3f", loose.Slowdown, strict.Slowdown)
	}
	var sb strings.Builder
	if err := a.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "impact_factor") || !strings.Contains(sb.String(), "usage_thresh") {
		t.Error("render missing sweep tables")
	}
}
