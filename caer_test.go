package caer

import (
	"testing"

	"caer/internal/workload"
)

// shrunk returns a benchmark with a reduced instruction count for fast
// facade tests.
func shrunk(t *testing.T, name string, instructions uint64) Benchmark {
	t.Helper()
	b, ok := BenchmarkByName(name)
	if !ok {
		t.Fatalf("benchmark %q missing", name)
	}
	b.Exec.Instructions = instructions
	return b
}

func TestFacadeBenchmarkRegistry(t *testing.T) {
	if got := len(Benchmarks()); got != 21 {
		t.Errorf("Benchmarks() = %d, want 21", got)
	}
	if got := len(BenchmarkNames()); got != 21 {
		t.Errorf("BenchmarkNames() = %d, want 21", got)
	}
	if LBM().Name != "470.lbm" {
		t.Errorf("LBM() = %q", LBM().Name)
	}
	if _, ok := BenchmarkByName("mcf"); !ok {
		t.Error("BenchmarkByName(mcf) failed")
	}
	classes := map[Sensitivity]bool{}
	for _, b := range Benchmarks() {
		classes[b.Class] = true
	}
	for _, c := range []Sensitivity{Insensitive, Moderate, Sensitive} {
		if !classes[c] {
			t.Errorf("no benchmark in class %v", c)
		}
	}
}

func TestFacadeEndToEndScenario(t *testing.T) {
	mcf := shrunk(t, "mcf", 300_000)
	alone := Run(Scenario{Latency: mcf, Mode: ModeAlone, Seed: 1})
	colo := Run(Scenario{Latency: mcf, Mode: ModeNativeColo, Seed: 1})
	managed := Run(Scenario{Latency: mcf, Mode: ModeCAER, Heuristic: HeuristicRule, Seed: 1})

	if !(alone.Periods < managed.Periods && managed.Periods < colo.Periods) {
		t.Errorf("ordering violated: alone %d, caer %d, colo %d",
			alone.Periods, managed.Periods, colo.Periods)
	}
	if e := InterferenceEliminated(managed, colo, alone); e <= 0 || e > 1.001 {
		t.Errorf("interference eliminated = %.3f", e)
	}
	if o := Overhead(managed, alone); o < 0 {
		t.Errorf("overhead = %.3f", o)
	}
	if g := UtilizationGained(managed); g <= 0 {
		t.Errorf("utilization gained = %.3f", g)
	}
	if s := Slowdown(colo, alone); s <= 1 {
		t.Errorf("colo slowdown = %.3f", s)
	}
}

func TestFacadeManualRuntimeWiring(t *testing.T) {
	// The quickstart flow from the package docs, assembled by hand.
	m := NewMachine(MachineConfig{Cores: 2})
	rt := NewRuntime(m, HeuristicShutter, DefaultConfig())
	lat := shrunk(t, "soplex", 200_000).NewProcess(0, 1)
	rt.AddLatency("soplex", 0, lat)
	rt.AddBatch("lbm", 1, LBM().Batch().NewProcess(1<<28, 2))
	n := rt.RunUntil(lat.Done, 100_000)
	if !lat.Done() || n == 0 {
		t.Fatalf("runtime did not complete the latency app (ran %d periods)", n)
	}
	if len(rt.Engines()) != 1 {
		t.Error("engine missing")
	}
}

func TestFacadeCustomWorkload(t *testing.T) {
	// Users can define their own applications from generator primitives.
	gen := workload.NewHotCold(
		workload.NewUniform(0, 256, 0.1),
		workload.NewStream(1<<20, 10000, 1, 0.2),
		0.7)
	proc := NewProcess("custom", ExecProfile{MemFraction: 0.3, BaseCPI: 1, Instructions: 100_000}, gen, 9)
	m := NewMachine(MachineConfig{Cores: 1})
	m.Bind(0, proc)
	for !proc.Done() {
		m.RunPeriod()
	}
	if proc.Retired() != 100_000 {
		t.Errorf("retired = %d", proc.Retired())
	}
}

func TestFacadeDetectorConstructors(t *testing.T) {
	cfg := DefaultConfig()
	for _, d := range []Detector{NewShutterDetector(cfg), NewRuleDetector(cfg), NewRandomDetector(cfg)} {
		if d == nil {
			t.Error("detector constructor returned nil")
		}
	}
	if DVFSActuator(2) == nil {
		t.Error("DVFSActuator returned nil")
	}
}

func TestFacadeHierarchyConfig(t *testing.T) {
	cfg := DefaultHierarchyConfig(4)
	if cfg.Cores != 4 || cfg.L3Ways != 16 {
		t.Errorf("unexpected hierarchy config: %+v", cfg)
	}
}

func TestFacadeSuite(t *testing.T) {
	s := NewSuite()
	s.Benchmarks = []Benchmark{shrunk(t, "namd", 400_000), shrunk(t, "omnetpp", 200_000)}
	f := s.Figure1()
	if len(f.Benchmarks) != 2 {
		t.Fatalf("figure over %d benchmarks", len(f.Benchmarks))
	}
	if f.Slowdowns[1] <= f.Slowdowns[0] {
		t.Errorf("omnetpp (%.3f) should out-suffer namd (%.3f)", f.Slowdowns[1], f.Slowdowns[0])
	}
}
