package experiments

import (
	"strings"
	"testing"

	"caer/internal/caer"
	"caer/internal/spec"
)

func TestMultiAppVisionShape(t *testing.T) {
	s := smallSuite(t)
	mcf := s.Benchmarks[0] // shrunken mcf
	soplex, ok := spec.ByName("soplex")
	if !ok {
		t.Fatal("soplex missing")
	}
	soplex.Exec.Instructions = 300_000
	lbm := spec.LBM()

	m := s.MultiApp([2]spec.Profile{mcf, soplex}, [2]spec.Profile{lbm, lbm}, caer.HeuristicRule)

	if m.AlonePeriods == 0 || m.ColoPeriods == 0 || m.CAERPeriods == 0 {
		t.Fatalf("zero periods somewhere: %+v", m)
	}
	// Native 2+2 co-location hurts the latency pair badly; CAER recovers
	// most of it while keeping some batch progress.
	if m.ColoSlowdown <= 1.1 {
		t.Errorf("native 2+2 slowdown = %.3f, want substantial", m.ColoSlowdown)
	}
	if m.CAERSlowdown >= m.ColoSlowdown {
		t.Errorf("CAER (%.3f) did not improve on native (%.3f)", m.CAERSlowdown, m.ColoSlowdown)
	}
	if m.CAERSlowdown < 1 {
		t.Errorf("CAER slowdown %.3f below 1", m.CAERSlowdown)
	}
	if m.ColoBatchDuty < 0.95 {
		t.Errorf("native batch duty = %.3f, want ~1", m.ColoBatchDuty)
	}
	if m.CAERBatchDuty <= 0 || m.CAERBatchDuty >= 1 {
		t.Errorf("CAER batch duty = %.3f, want in (0,1)", m.CAERBatchDuty)
	}
	if m.CPositive == 0 {
		t.Error("no contention detected in a heavily contended 2+2 mix")
	}
	var sb strings.Builder
	if err := m.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 4") || !strings.Contains(sb.String(), "verdicts") {
		t.Errorf("render incomplete:\n%s", sb.String())
	}
	if tableRows(t, m.Table()) != 3 {
		t.Errorf("table rows = %d, want 3", tableRows(t, m.Table()))
	}
}
