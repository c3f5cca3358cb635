package caer

import (
	"testing"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/spec"
)

func hybridTestConfig() Config {
	cfg := DefaultConfig()
	cfg.UsageThresh = 50
	cfg.WindowSize = 2
	return cfg
}

// TestHybridGatesQuietPairsWithoutProbing: a probe would close the shutter
// and withhold its verdict for endPoint periods, so a run-and-clear answer
// on every step means the gate resolved each one.
func TestHybridGatesQuietPairsWithoutProbing(t *testing.T) {
	d := NewHybridDetector(hybridTestConfig())
	for i := 0; i < 50; i++ {
		dir, v := d.Step(5, 5) // both quiet
		if v != VerdictNoContention {
			t.Fatalf("step %d: verdict %v, want no-contention", i, v)
		}
		if dir != comm.DirectiveRun {
			t.Fatalf("step %d: quiet pair got directive %v", i, dir)
		}
	}
}

func TestHybridConfirmsRealContention(t *testing.T) {
	d := NewHybridDetector(hybridTestConfig())
	// Warm the rule windows with heavy values so the gate fires.
	var v Verdict
	var dirs []comm.Directive
	verdicts := 0
	// Scripted: heavy on both sides; during the confirmation shutter the
	// neighbour's misses drop (batch halted) then spike in the burst —
	// genuine contention. The gate fires on the first sample, which is the
	// shutter cycle's position 0 (pre-cycle sample); the last sample ends
	// the cycle with a verdict.
	for _, n := range shutterCycle(500, 80, 505) {
		var dir comm.Directive
		dir, v = d.Step(400, n)
		dirs = append(dirs, dir)
		if v != VerdictPending {
			verdicts++
		}
	}
	if v != VerdictContention {
		t.Fatalf("verdict = %v, want contention confirmed", v)
	}
	// The shutter protocol actually halted the batch while measuring: the
	// pause directives issued at steps 0..switchPoint-2 cover the periods
	// sampled at window positions 1..switchPoint-1 (the steady span).
	for i, dir := range dirs[:switchPoint-1] {
		if dir != comm.DirectivePause {
			t.Fatalf("confirmation did not close the shutter at step %d: %v", i, dirs)
		}
	}
	// One probe: the cycle's only verdict is the one that ends it.
	if verdicts != 1 {
		t.Errorf("%d verdicts over one confirmation cycle, want 1", verdicts)
	}
}

func TestHybridRefutesIntrinsicMisses(t *testing.T) {
	d := NewHybridDetector(hybridTestConfig())
	// Both heavy, but the neighbour's misses do NOT react to the batch
	// (an intrinsic streamer): the shutter confirmation must refute. Stop
	// at the first completed verdict (the gate immediately re-probes on
	// further heavy samples).
	v := VerdictPending
	for i := 0; i < endPoint && v == VerdictPending; i++ {
		_, v = d.Step(400, 500)
	}
	if v != VerdictNoContention {
		t.Fatalf("verdict = %v, want the probe to refute intrinsic misses", v)
	}
}

func TestHybridResetClearsConfirmation(t *testing.T) {
	d := NewHybridDetector(hybridTestConfig())
	d.Step(400, 500) // enters confirmation
	d.Reset()
	// The rule's running windows survive resets (Algorithm 2's averages
	// are continuous), so the stale heavy sample re-fires the gate once;
	// an in-flight probe over quiet samples then refutes, and once the
	// windows have drained the gate resolves quiet pairs instantly.
	v := VerdictPending
	for i := 0; i < endPoint && v == VerdictPending; i++ {
		_, v = d.Step(0, 0)
	}
	if v != VerdictNoContention {
		t.Fatalf("post-reset probe verdict = %v", v)
	}
	// A one-step run-and-clear answer is the gate's: a probe would pause.
	if dir, v := d.Step(0, 0); v != VerdictNoContention || dir != comm.DirectiveRun {
		t.Errorf("drained-window step = %v,%v; want the gate's run,no-contention", dir, v)
	}
}

func TestHybridName(t *testing.T) {
	if HeuristicHybrid.String() != "hybrid" {
		t.Error("kind string wrong")
	}
	if _, ok := HeuristicHybrid.NewDetector(DefaultConfig()).(*HybridDetector); !ok {
		t.Error("factory broken")
	}
	if HeuristicHybrid.NewResponder(DefaultConfig()).Name() != "red-light-green-light(10)" {
		t.Error("responder pairing wrong")
	}
}

func TestHybridEndToEndBeatsRuleOnStreamerPair(t *testing.T) {
	// libquantum's misses are intrinsic: the rule heuristic locks the
	// batch out (~0 utilization), while the hybrid's confirmation probes
	// refute and keep the batch running substantially more.
	duty := func(kind HeuristicKind) float64 {
		m := machine.New(machine.Config{Cores: 2})
		rt := NewRuntime(m, kind, DefaultConfig())
		libq, _ := spec.ByName("libquantum")
		rt.AddLatency("libquantum", 0, libq.Batch().NewProcess(0, 11))
		rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, 12))
		for i := 0; i < 400; i++ {
			rt.Step()
		}
		return m.Core(1).Utilization()
	}
	rule := duty(HeuristicRule)
	hybrid := duty(HeuristicHybrid)
	if hybrid < rule+0.2 {
		t.Errorf("hybrid duty %.3f not clearly above rule %.3f on an intrinsic streamer", hybrid, rule)
	}
}
