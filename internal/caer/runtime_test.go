package caer

import (
	"testing"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/spec"
)

// testScenario runs a sensitive latency app against an lbm batch adversary
// for a fixed number of periods under the given heuristic, returning the
// runtime (for inspection) and the latency app's retired instructions.
func testScenario(t *testing.T, kind HeuristicKind, periods int) (*Runtime, uint64) {
	t.Helper()
	m := machine.New(machine.Config{Cores: 2})
	cfg := DefaultConfig()
	rt := NewRuntime(m, kind, cfg)
	lat, ok := spec.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	latProc := lat.Batch().NewProcess(0, 11) // Batch(): run the whole window
	rt.AddLatency("mcf", 0, latProc)
	rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, 12))
	for i := 0; i < periods; i++ {
		rt.Step()
	}
	return rt, latProc.Retired()
}

func TestRuntimeRequiresBothRoles(t *testing.T) {
	m := machine.New(machine.Config{Cores: 2})
	rt := NewRuntime(m, HeuristicRule, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("Step without applications did not panic")
		}
	}()
	rt.Step()
}

func TestRuntimeRejectsInvalidConfig(t *testing.T) {
	m := machine.New(machine.Config{Cores: 2})
	bad := DefaultConfig()
	bad.WindowSize = -1
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	NewRuntime(m, HeuristicRule, bad)
}

func TestRuntimeRejectsLateRegistration(t *testing.T) {
	rt, _ := testScenario(t, HeuristicRule, 1)
	defer func() {
		if recover() == nil {
			t.Error("AddBatch after Step did not panic")
		}
	}()
	rt.AddBatch("late", 1, spec.LBM().NewProcess(0, 1))
}

func TestRuntimeThrottlesBatchUnderContention(t *testing.T) {
	for _, kind := range []HeuristicKind{HeuristicShutter, HeuristicRule} {
		t.Run(kind.String(), func(t *testing.T) {
			rt, _ := testScenario(t, kind, 300)
			st := rt.Engines()[0].Stats()
			if st.CPositive == 0 {
				t.Error("no contention detected for mcf+lbm (a heavily contending pair)")
			}
			if st.PausedPeriods == 0 {
				t.Error("batch never paused despite contention")
			}
			if st.PausedPeriods == st.Periods {
				t.Error("batch paused every period (no utilization gained)")
			}
		})
	}
}

func TestRuntimeCAERReducesInterference(t *testing.T) {
	// The headline claim, end to end: mcf retires more instructions in a
	// fixed window under CAER than under native (unthrottled) co-location.
	const periods = 400
	native := func() uint64 {
		m := machine.New(machine.Config{Cores: 2})
		lat, _ := spec.ByName("mcf")
		p := lat.Batch().NewProcess(0, 11)
		m.Bind(0, p)
		m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, 12))
		for i := 0; i < periods; i++ {
			m.RunPeriod()
		}
		return p.Retired()
	}()
	for _, kind := range []HeuristicKind{HeuristicShutter, HeuristicRule} {
		t.Run(kind.String(), func(t *testing.T) {
			_, caerRetired := testScenario(t, kind, periods)
			if caerRetired <= native {
				t.Errorf("CAER(%v) did not help: native=%d caer=%d", kind, native, caerRetired)
			}
		})
	}
}

func TestRuntimeQuietBatchRunsFreely(t *testing.T) {
	// A private-cache-resident pair must be left alone by the rule-based
	// heuristic: no contention, near-zero paused periods.
	m := machine.New(machine.Config{Cores: 2})
	rt := NewRuntime(m, HeuristicRule, DefaultConfig())
	namd, _ := spec.ByName("namd")
	povray, _ := spec.ByName("povray")
	rt.AddLatency("namd", 0, namd.Batch().NewProcess(0, 1))
	rt.AddBatch("povray", 1, povray.Batch().NewProcess(1<<28, 2))
	// Cold-start misses legitimately look like contention for the first few
	// windows; measure steady state after warm-up.
	for i := 0; i < 100; i++ {
		rt.Step()
	}
	warm := rt.Engines()[0].Stats()
	for i := 0; i < 200; i++ {
		rt.Step()
	}
	st := rt.Engines()[0].Stats()
	paused := st.PausedPeriods - warm.PausedPeriods
	if frac := float64(paused) / float64(st.Periods-warm.Periods); frac > 0.05 {
		t.Errorf("quiet pair paused %.1f%% of steady-state periods, want ~0", frac*100)
	}
}

func TestRuntimeAccessors(t *testing.T) {
	rt, _ := testScenario(t, HeuristicRule, 2)
	if rt.kind != HeuristicRule {
		t.Error("pairing wrong")
	}
	if len(rt.Engines()) != 1 {
		t.Error("Engines() wrong")
	}
	if len(rt.Monitors()) != 1 || rt.Monitors()[0].PMU().Core() != 0 {
		t.Error("Monitors() wrong")
	}
	if rt.Table() != rt.table {
		t.Error("Table() wrong")
	}
}

func TestRuntimeRunUntil(t *testing.T) {
	m := machine.New(machine.Config{Cores: 2})
	rt := NewRuntime(m, HeuristicRule, DefaultConfig())
	lat, _ := spec.ByName("namd")
	proc := lat.NewProcess(0, 1) // finite
	rt.AddLatency("namd", 0, proc)
	rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, 2))
	n := rt.RunUntil(proc.Done, 100000)
	if !proc.Done() {
		t.Fatal("RunUntil stopped before completion")
	}
	if n <= 0 || n == 100000 {
		t.Errorf("RunUntil ran %d periods", n)
	}
	// A second call stops immediately.
	if again := rt.RunUntil(proc.Done, 10); again != 0 {
		t.Errorf("second RunUntil ran %d periods, want 0", again)
	}
}

func TestRuntimeDVFSActuator(t *testing.T) {
	m := machine.New(machine.Config{Cores: 2})
	rt := NewRuntime(m, HeuristicRule, DefaultConfig(), WithActuator(DVFSActuator(4)))
	lat, _ := spec.ByName("mcf")
	rt.AddLatency("mcf", 0, lat.Batch().NewProcess(0, 11))
	batchProc := spec.LBM().Batch().NewProcess(1<<28, 12)
	rt.AddBatch("lbm", 1, batchProc)
	throttled := recordThrottles(&rt.Pipeline)
	sawThrottle := false
	for i := 0; i < 300; i++ {
		slow, before := throttled[m.Core(1)], batchProc.Retired()
		rt.Step()
		if slow {
			sawThrottle = true
			if batchProc.Retired() == before {
				t.Fatal("DVFS actuator paused the core instead of down-clocking")
			}
		}
	}
	if !sawThrottle {
		t.Error("DVFS actuator never down-clocked the contending batch core")
	}
	// Even while throttled the batch keeps making (slow) progress.
	if batchProc.Retired() == 0 {
		t.Error("DVFS-throttled batch made no progress")
	}
}

func TestDVFSActuatorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("DVFSActuator(1) did not panic")
		}
	}()
	DVFSActuator(1)
}

func TestPauseActuator(t *testing.T) {
	m := machine.New(machine.Config{Cores: 1})
	proc := spec.LBM().Batch().NewProcess(0, 1)
	m.Bind(0, proc)
	PauseActuator(m.Core(0), comm.DirectivePause)
	m.RunPeriod()
	if proc.Retired() != 0 {
		t.Error("PauseActuator did not pause")
	}
	PauseActuator(m.Core(0), comm.DirectiveRun)
	m.RunPeriod()
	if proc.Retired() == 0 {
		t.Error("PauseActuator did not release")
	}
}

func TestRuntimeMultiAppVision(t *testing.T) {
	// The Figure 4 design vision: 2 latency-sensitive + 2 batch on 4 cores,
	// cooperating engines, all batches reacting together.
	m := machine.New(machine.Config{Cores: 4})
	rt := NewRuntime(m, HeuristicRule, DefaultConfig())
	mcf, _ := spec.ByName("mcf")
	soplex, _ := spec.ByName("soplex")
	rt.AddLatency("mcf", 0, mcf.Batch().NewProcess(0, 1))
	rt.AddLatency("soplex", 1, soplex.Batch().NewProcess(1<<26, 2))
	rt.AddBatch("lbm-a", 2, spec.LBM().Batch().NewProcess(1<<27, 3))
	rt.AddBatch("lbm-b", 3, spec.LBM().Batch().NewProcess(1<<28, 4))
	paused := recordThrottles(&rt.Pipeline)
	for i := 0; i < 200; i++ {
		rt.Step()
		// All batch cores must share one fate each period (§3.2).
		if paused[m.Core(2)] != paused[m.Core(3)] {
			t.Fatal("batch applications did not react together")
		}
	}
	if len(rt.Engines()) != 2 {
		t.Fatalf("engines = %d, want 2", len(rt.Engines()))
	}
	st := rt.Engines()[0].Stats()
	if st.CPositive == 0 {
		t.Error("no contention detected in a 4-way contending mix")
	}
}
