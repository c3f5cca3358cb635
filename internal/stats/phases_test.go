package stats_test

import (
	"testing"

	"caer/internal/runner"
	"caer/internal/spec"
	"caer/internal/stats"
)

func TestDetectPhasesSynthetic(t *testing.T) {
	// Two clean phases: 100 periods at ~10, then 100 at ~500.
	series := make([]float64, 200)
	for i := range series {
		if i < 100 {
			series[i] = 10
		} else {
			series[i] = 500
		}
	}
	phases := stats.DetectPhases(series, 10, 0.5, 20)
	if len(phases) != 2 {
		t.Fatalf("detected %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].Mean > 50 || phases[1].Mean < 400 {
		t.Errorf("phase means = %.0f, %.0f", phases[0].Mean, phases[1].Mean)
	}
	boundary := phases[0].End
	if boundary < 90 || boundary > 110 {
		t.Errorf("boundary at %d, want ~100", boundary)
	}
	// Coverage: phases tile the series.
	if phases[0].Start != 0 || phases[len(phases)-1].End != len(series) {
		t.Error("phases do not tile the series")
	}
	if phases[0].Len()+phases[1].Len() != len(series) {
		t.Error("phase lengths do not sum to series length")
	}
}

func TestDetectPhasesFlatSeries(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 42
	}
	phases := stats.DetectPhases(series, 10, 0.5, 5)
	if len(phases) != 1 {
		t.Errorf("flat series produced %d phases, want 1", len(phases))
	}
}

func TestDetectPhasesShortAndEmpty(t *testing.T) {
	if got := stats.DetectPhases(nil, 5, 0.5, 1); got != nil {
		t.Errorf("empty series -> %v", got)
	}
	short := stats.DetectPhases([]float64{1, 2, 3}, 5, 0.5, 1)
	if len(short) != 1 || short[0].Len() != 3 {
		t.Errorf("short series -> %v", short)
	}
}

func TestDetectPhasesValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("window", func() { stats.DetectPhases([]float64{1}, 0, 0.5, 1) })
	mustPanic("rel", func() { stats.DetectPhases([]float64{1}, 1, -1, 1) })
	mustPanic("abs", func() { stats.DetectPhases([]float64{1}, 1, 0.5, -1) })
}

func TestDetectPhasesOnRealBenchmark(t *testing.T) {
	// mcf's miss series must show its alternating resident/pricing phases.
	mcf, _ := spec.ByName("mcf")
	misses, _ := runner.Sample(mcf.Batch(), 1, false, 0, 400)
	if phases := stats.DetectPhases(misses, 8, 0.8, 50); len(phases) < 3 {
		t.Errorf("mcf produced %d phases over 400 periods, want several", len(phases))
	}
	// namd is flat once the cold-start fill (itself a phase transition) is
	// skipped: one steady phase.
	namd, _ := spec.ByName("namd")
	misses, _ = runner.Sample(namd.Batch(), 1, false, 50, 400)
	if got := stats.DetectPhases(misses, 8, 0.8, 50); len(got) != 1 {
		t.Errorf("namd produced %d phases, want 1", len(got))
	}
}
