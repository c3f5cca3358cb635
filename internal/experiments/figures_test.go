package experiments

import (
	"bytes"
	"strings"
	"testing"

	"caer/internal/report"
	"caer/internal/runner"
	"caer/internal/spec"
)

// smallSuite returns a suite over three representative benchmarks with
// shrunken instruction counts so the whole figure set runs in about a
// second: one very sensitive (mcf), one moderate (astar), one insensitive
// (namd).
func smallSuite(t *testing.T) *Suite {
	t.Helper()
	names := map[string]uint64{"429.mcf": 300_000, "473.astar": 500_000, "444.namd": 1_200_000}
	var benchmarks []spec.Profile
	for _, n := range []string{"429.mcf", "473.astar", "444.namd"} {
		p, ok := spec.ByName(n)
		if !ok {
			t.Fatalf("unknown benchmark %s", n)
		}
		p.Exec.Instructions = names[n]
		benchmarks = append(benchmarks, p)
	}
	return &Suite{Benchmarks: benchmarks, Seed: 3}
}

func TestSuiteResultMemoized(t *testing.T) {
	s := smallSuite(t)
	b := s.Benchmarks[2] // namd: fastest
	r1 := s.Result(b, runner.ModeAlone, 0)
	r2 := s.Result(b, runner.ModeAlone, 0)
	if r1.Periods != r2.Periods || r1.LatencyMisses != r2.LatencyMisses {
		t.Error("memoized results differ")
	}
	if len(s.cache) != 1 {
		t.Errorf("cache has %d entries, want 1", len(s.cache))
	}
}

func TestFigure1ShapeHolds(t *testing.T) {
	s := smallSuite(t)
	f := s.Figure1()
	if len(f.Benchmarks) != 3 || len(f.Slowdowns) != 3 {
		t.Fatalf("figure has %d benchmarks", len(f.Benchmarks))
	}
	byName := map[string]float64{}
	for i, b := range f.Benchmarks {
		byName[b] = f.Slowdowns[i]
	}
	if byName["429.mcf"] <= byName["444.namd"] {
		t.Errorf("mcf (%.3f) not more sensitive than namd (%.3f)", byName["429.mcf"], byName["444.namd"])
	}
	if byName["444.namd"] > 1.1 {
		t.Errorf("namd slowdown %.3f, want near 1", byName["444.namd"])
	}
	if f.Mean <= 1 {
		t.Errorf("mean slowdown %.3f, want > 1", f.Mean)
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 1") || !strings.Contains(sb.String(), "mean") {
		t.Error("render missing title or mean")
	}
	if tableRows(t, f.Table()) != 4 {
		t.Errorf("table rows = %d, want 4 (3 benchmarks + mean)", tableRows(t, f.Table()))
	}
}

func TestFigure2MissesIncreaseForSensitive(t *testing.T) {
	s := smallSuite(t)
	f := s.Figure2()
	for i, b := range f.Benchmarks {
		if b == "429.mcf" && f.MissesColo[i] <= f.MissesAlone[i] {
			t.Errorf("mcf misses did not increase: %.0f -> %.0f", f.MissesAlone[i], f.MissesColo[i])
		}
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if tableRows(t, f.Table()) != 3 {
		t.Errorf("table rows = %d", tableRows(t, f.Table()))
	}
}

func TestFigure3PhasesAndInverseCorrelation(t *testing.T) {
	s := smallSuite(t)
	f := s.Figure3(300, "483.xalancbmk", "429.mcf")
	if len(f.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(f.Series))
	}
	for _, srs := range f.Series {
		if len(srs.Misses) == 0 || len(srs.Misses) != len(srs.Retired) {
			t.Fatalf("%s: bad series lengths %d/%d", srs.Benchmark, len(srs.Misses), len(srs.Retired))
		}
		// The paper's claim: LLC misses and retirement rate are inversely
		// related for phase-heavy benchmarks.
		if srs.Correlation >= -0.5 {
			t.Errorf("%s: correlation = %.3f, want strongly negative", srs.Benchmark, srs.Correlation)
		}
		// Phases: the miss series must actually vary (quiet and heavy).
		lo, hi := srs.Misses[0], srs.Misses[0]
		for _, v := range srs.Misses {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi < 4*(lo+1) {
			t.Errorf("%s: miss series shows no phases (min %.0f max %.0f)", srs.Benchmark, lo, hi)
		}
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "correlation") {
		t.Error("render missing correlation")
	}
}

func TestFigure3UnknownBenchmarkPanics(t *testing.T) {
	s := smallSuite(t)
	defer func() {
		if recover() == nil {
			t.Error("unknown benchmark did not panic")
		}
	}()
	s.Figure3(10, "999.nope")
}

func TestFigure6CAERBeatsNativeColo(t *testing.T) {
	s := smallSuite(t)
	f := s.Figure6()
	if f.MeanShutter >= f.MeanColo {
		t.Errorf("shutter mean %.3f not below colo mean %.3f", f.MeanShutter, f.MeanColo)
	}
	if f.MeanRule >= f.MeanColo {
		t.Errorf("rule mean %.3f not below colo mean %.3f", f.MeanRule, f.MeanColo)
	}
	if f.MeanRule > f.MeanShutter {
		t.Errorf("rule mean %.3f above shutter mean %.3f", f.MeanRule, f.MeanShutter)
	}
	for i, b := range f.Benchmarks {
		if f.Shutter[i] < 1-1e-9 || f.Rule[i] < 1-1e-9 {
			t.Errorf("%s: CAER faster than alone (shutter %.3f rule %.3f)", b, f.Shutter[i], f.Rule[i])
		}
	}
	if tableRows(t, f.Table()) != 4 {
		t.Errorf("table rows = %d", tableRows(t, f.Table()))
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFigure7UtilizationGainedInRange(t *testing.T) {
	s := smallSuite(t)
	f := s.Figure7()
	for i, b := range f.Benchmarks {
		for _, v := range []float64{f.Shutter[i], f.Rule[i]} {
			if v <= 0 || v > 1 {
				t.Errorf("%s: utilization gained %.3f outside (0,1]", b, v)
			}
		}
	}
	if f.MeanShutter <= 0 || f.MeanRule <= 0 {
		t.Error("mean utilization gained not positive")
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFigure8InterferenceEliminatedPositiveForSensitive(t *testing.T) {
	s := smallSuite(t)
	f := s.Figure8()
	found := false
	for i, b := range f.Benchmarks {
		if b == "429.mcf" {
			found = true
			if f.Shutter[i] <= 0 || f.Rule[i] <= 0 {
				t.Errorf("mcf interference eliminated: shutter %.3f rule %.3f, want positive", f.Shutter[i], f.Rule[i])
			}
		}
	}
	if !found {
		t.Error("mcf missing from Figure 8 (should have a clear native penalty)")
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
}

func TestFigureAccuracySigns(t *testing.T) {
	s := smallSuite(t)
	// With 3 benchmarks, take the 1 most and 1 least sensitive.
	most := s.FigureAccuracy(true, 1)
	least := s.FigureAccuracy(false, 1)
	if len(most.Benchmarks) != 1 || len(least.Benchmarks) != 1 {
		t.Fatalf("accuracy figures have %d/%d benchmarks", len(most.Benchmarks), len(least.Benchmarks))
	}
	if most.Benchmarks[0] != "429.mcf" {
		t.Errorf("most sensitive = %s, want mcf", most.Benchmarks[0])
	}
	if least.Benchmarks[0] != "444.namd" {
		t.Errorf("least sensitive = %s, want namd", least.Benchmarks[0])
	}
	// §6.4: a correct heuristic sacrifices more utilization than random for
	// sensitive apps (A < 0) and gains at least as much for insensitive
	// ones (A >= 0).
	if most.Rule[0] >= 0 {
		t.Errorf("rule accuracy for mcf = %+.3f, want negative", most.Rule[0])
	}
	if least.Rule[0] < 0 {
		t.Errorf("rule accuracy for namd = %+.3f, want non-negative", least.Rule[0])
	}
	if least.Shutter[0] < 0 {
		t.Errorf("shutter accuracy for namd = %+.3f, want non-negative", least.Shutter[0])
	}
	var sb strings.Builder
	if err := most.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 9") {
		t.Error("most-sensitive render missing Figure 9 title")
	}
	sb.Reset()
	if err := least.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 10") {
		t.Error("least-sensitive render missing Figure 10 title")
	}
	if tableRows(t, most.Table()) != 2 || tableRows(t, least.Table()) != 2 {
		t.Error("accuracy tables wrong size")
	}
}

func TestRankBySensitivityExcludesAdversary(t *testing.T) {
	s := smallSuite(t)
	lbm := spec.LBM()
	lbm.Exec.Instructions = 300_000
	s.Benchmarks = append(s.Benchmarks, lbm)
	ranked := s.rankBySensitivity()
	for _, p := range ranked {
		if p.Name == "470.lbm" {
			t.Error("adversary included in its own sensitivity ranking")
		}
	}
	if len(ranked) != 3 {
		t.Errorf("ranked %d benchmarks, want 3", len(ranked))
	}
}

// TestFiguresSmallGolden pins the numbers behind results/*.csv in tier-1:
// the CSV tables of Figures 1, 2, 6, 7, 8, 9 and 10 and of the partition
// and response ablations on smallSuite, concatenated in that order, against
// testdata/figures_small.golden. Every alone / native / CAER / DVFS /
// way-partitioned runner path feeds one of these tables.
func TestFiguresSmallGolden(t *testing.T) {
	s := smallSuite(t)
	mcf := s.Benchmarks[0]
	var artifact bytes.Buffer
	for _, f := range []interface{ Table() *report.Table }{
		s.Figure1(), s.Figure2(), s.Figure6(), s.Figure7(), s.Figure8(),
		s.FigureAccuracy(true, 1), s.FigureAccuracy(false, 1),
		s.PartitionSweep(mcf, []int{4, 8, 12}), s.ResponseComparison(mcf),
	} {
		if err := f.Table().WriteCSV(&artifact); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "figures_small", artifact.Bytes())
}
