package caer

// Benchmark harness: one testing.B benchmark per data figure in the
// paper's evaluation (Figures 1, 2, 3, 6, 7, 8, 9, 10), plus ablation
// benchmarks for the design choices DESIGN.md calls out (static cache
// partitioning, adaptive response, DVFS response) and micro-benchmarks of
// the substrate's hot paths.
//
// Figure benchmarks run the corresponding experiment end to end on
// 8x-shrunken benchmark lengths (the shapes are unchanged; full-length
// numbers are recorded in EXPERIMENTS.md via cmd/caer-bench) and report
// the figure's headline metric through b.ReportMetric.

import (
	"math/rand"
	"testing"

	icaer "caer/internal/caer"
	"caer/internal/experiments"
	"caer/internal/machine"
	"caer/internal/mem"
	"caer/internal/runner"
	"caer/internal/spec"
	"caer/internal/workload"
)

// benchSuite returns a fresh experiment suite over all 21 benchmarks at
// 1/8 length.
func benchSuite() *experiments.Suite {
	s := experiments.NewSuite()
	s.Seed = 1
	for _, p := range spec.All() {
		p.Exec.Instructions /= 8
		s.Benchmarks = append(s.Benchmarks, p)
	}
	return s
}

func BenchmarkFigure1ColocationPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure1()
		b.ReportMetric(f.Mean, "mean-slowdown")
	}
}

func BenchmarkFigure2MissIncrease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure2()
		var alone, colo float64
		for j := range f.Benchmarks {
			alone += f.MissesAlone[j]
			colo += f.MissesColo[j]
		}
		b.ReportMetric(colo/alone, "miss-increase")
	}
}

func BenchmarkFigure3PhaseCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure3(600)
		var c float64
		for _, srs := range f.Series {
			c += srs.Correlation
		}
		b.ReportMetric(c/float64(len(f.Series)), "mean-correlation")
	}
}

func BenchmarkFigure6CAERPenalty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure6()
		b.ReportMetric(f.MeanColo, "colo-slowdown")
		b.ReportMetric(f.MeanShutter, "shutter-slowdown")
		b.ReportMetric(f.MeanRule, "rule-slowdown")
	}
}

func BenchmarkFigure7UtilizationGained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure7()
		b.ReportMetric(f.MeanShutter*100, "shutter-util-%")
		b.ReportMetric(f.MeanRule*100, "rule-util-%")
	}
}

func BenchmarkFigure8InterferenceEliminated(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().Figure8()
		b.ReportMetric(f.MeanShutter*100, "shutter-eliminated-%")
		b.ReportMetric(f.MeanRule*100, "rule-eliminated-%")
	}
}

func BenchmarkFigure9AccuracyMostSensitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().FigureAccuracy(true, 6)
		b.ReportMetric(f.MeanShutter*100, "shutter-A-%")
		b.ReportMetric(f.MeanRule*100, "rule-A-%")
	}
}

func BenchmarkFigure10AccuracyLeastSensitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := benchSuite().FigureAccuracy(false, 6)
		b.ReportMetric(f.MeanShutter*100, "shutter-A-%")
		b.ReportMetric(f.MeanRule*100, "rule-A-%")
	}
}

// benchScenario runs mcf-vs-lbm (1/8 length) under one scenario variant.
func benchScenario(b *testing.B, mutate func(*runner.Scenario)) {
	b.Helper()
	mcf, _ := spec.ByName("mcf")
	mcf.Exec.Instructions /= 8
	for i := 0; i < b.N; i++ {
		s := runner.Scenario{Latency: mcf, Seed: 1}
		mutate(&s)
		r := runner.Run(s)
		alone := runner.Run(runner.Scenario{Latency: mcf, Mode: runner.ModeAlone, Seed: 1})
		b.ReportMetric(runner.Slowdown(r, alone), "slowdown")
		if s.Mode != runner.ModeAlone {
			b.ReportMetric(runner.UtilizationGained(r)*100, "util-gained-%")
		}
	}
}

// Ablation: static L3 way-partitioning (hardware cache QoS) versus CAER's
// software throttling, on the worst pair.
func BenchmarkAblationPartitionedL3(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeNativeColo
		s.PartitionWays = 12
	})
}

// Ablation: fixed-length red-light/green-light versus the adaptive variant.
func BenchmarkAblationAdaptiveResponse(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeCAER
		s.Heuristic = icaer.HeuristicShutter
		cfg := icaer.DefaultConfig()
		cfg.AdaptiveResponse = true
		s.Config = cfg
	})
}

// Ablation: the hybrid rule-gate + shutter-confirm extension heuristic.
func BenchmarkAblationHybridHeuristic(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeCAER
		s.Heuristic = icaer.HeuristicHybrid
	})
}

// Ablation: DVFS-style down-clocking instead of pausing.
func BenchmarkAblationDVFSResponse(b *testing.B) {
	benchScenario(b, func(s *runner.Scenario) {
		s.Mode = runner.ModeCAER
		s.Heuristic = icaer.HeuristicRule
		s.Actuator = icaer.DVFSActuator(4)
	})
}

// Micro-benchmarks of the substrate's hot paths.

func BenchmarkHierarchyAccess(b *testing.B) {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(12288))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(i&1, addrs[i&4095], false, uint64(i))
	}
}

// BenchmarkHierarchyLevels times an access served by each level in turn:
// core 0 cycles, in a fixed shuffled order, over a line count that exactly
// one level of the default hierarchy (L1 128, L2 1024, L3 8192 lines) can
// serve — LRU evicts a line of a larger sweep just before it comes round
// again. The repository benchmark reports the same four costs as
// mem.l1_hit_ns, mem.l2_hit_ns, mem.l3_hit_ns and mem.l3_miss_insert_ns.
func BenchmarkHierarchyLevels(b *testing.B) {
	for _, lv := range []struct {
		name  string
		lines int
	}{{"l1_hit", 64}, {"l2_hit", 512}, {"l3_hit", 4096}, {"miss_insert", 1 << 16}} {
		b.Run(lv.name, func(b *testing.B) {
			h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
			order := rand.New(rand.NewSource(1)).Perm(lv.lines)
			for i, a := range order {
				h.Access(0, uint64(a), false, uint64(i))
			}
			b.ResetTimer()
			for i, k := 0, 0; i < b.N; i++ {
				h.Access(0, uint64(order[k]), false, uint64(i)*30)
				if k++; k == lv.lines {
					k = 0
				}
			}
		})
	}
}

func BenchmarkMachinePeriod(b *testing.B) {
	m := machine.New(machine.Config{Cores: 2})
	mcf, _ := spec.ByName("mcf")
	m.Bind(0, mcf.Batch().NewProcess(0, 1))
	m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPeriod()
	}
}

// BenchmarkMachinePeriodHit is BenchmarkMachinePeriod on the cache-resident
// pair: namd beside povray, both in their private caches, so the period's
// time is mostly the instruction loop's own.
func BenchmarkMachinePeriodHit(b *testing.B) {
	m := machine.New(machine.Config{Cores: 2})
	namd, _ := spec.ByName("namd")
	povray, _ := spec.ByName("povray")
	m.Bind(0, namd.Batch().NewProcess(0, 1))
	m.Bind(1, povray.Batch().NewProcess(1<<28, 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPeriod()
	}
}

// BenchmarkMachinePeriodUncontended is BenchmarkMachinePeriod in a
// red-light period: lbm is bound but paused, so mcf is the domain's one
// runnable core and the period is stepped in one pass instead of slices.
func BenchmarkMachinePeriodUncontended(b *testing.B) {
	m := machine.New(machine.Config{Cores: 2})
	mcf, _ := spec.ByName("mcf")
	m.Bind(0, mcf.Batch().NewProcess(0, 1))
	m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, 2))
	m.Core(1).SetPaused(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPeriod()
	}
}

func BenchmarkShutterDetectorStep(b *testing.B) {
	d := icaer.NewShutterDetector(icaer.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(float64(i&255), float64((i*7)&255))
	}
}

func BenchmarkRuleDetectorStep(b *testing.B) {
	d := icaer.NewRuleDetector(icaer.DefaultConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Step(float64(i&255), float64((i*7)&255))
	}
}

// BenchmarkWorkloadGenerators times one reference of each generator at a
// profile's own size: namd's 448-line stream, povray's 320-line uniform,
// gromacs' 4×192-line stencil and astar's hot/cold mix. A power-of-two
// uniform would hide the cost of a non-power-of-two range.
func BenchmarkWorkloadGenerators(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gens := map[string]workload.Generator{
		"stream":  workload.NewStream(0, 448, 1, 0.2),
		"uniform": workload.NewUniform(0, 320, 0.1),
		"chase":   workload.NewPointerChase(0, 8192, 1, 0.3),
		"stencil": workload.NewStencil(0, 192, 4, 0.2),
		"hotcold": workload.NewHotCold(workload.NewUniform(1<<20, 512, 0.15), workload.NewUniform(0, 3584, 0.1), 0.5),
	}
	for name, g := range gens {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g.Next(rng)
			}
		})
	}
}
