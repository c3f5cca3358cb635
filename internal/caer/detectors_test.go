package caer

import (
	"testing"

	"caer/internal/comm"
)

// shutterCycle builds one detection cycle's neighbour samples (len ==
// endPoint): the pre-cycle sample at position 0, the shutter span
// [1, switchPoint) at shutter, and the burst span [switchPoint, endPoint)
// at burst. Under the constants the averages read the settled tails,
// positions [6, 10) and [15, 20).
func shutterCycle(pre, shutter, burst float64) []float64 {
	samples := make([]float64, endPoint)
	samples[0] = pre
	for i := 1; i < endPoint; i++ {
		samples[i] = shutter
		if i >= switchPoint {
			samples[i] = burst
		}
	}
	return samples
}

func TestShutterDirectiveSchedule(t *testing.T) {
	d := NewShutterDetector(DefaultConfig())
	// Directives issued per step: steps 1..switchPoint-1 -> Pause
	// (shutter), steps switchPoint..endPoint-1 -> Run (burst), step
	// endPoint -> verdict with Run.
	for step := 1; step <= endPoint; step++ {
		want := comm.DirectiveRun
		if step < switchPoint {
			want = comm.DirectivePause
		}
		dir, v := d.Step(0, 10)
		if dir != want {
			t.Errorf("step %d directive = %v, want %v", step, dir, want)
		}
		if step < endPoint && v != VerdictPending {
			t.Errorf("step %d verdict = %v, want pending", step, v)
		}
		if step == endPoint && v == VerdictPending {
			t.Error("final step still pending")
		}
	}
}

// runShutterCycle drives one full detection cycle with the given neighbour
// samples (len == endPoint) and returns the final verdict.
func runShutterCycle(t *testing.T, d *ShutterDetector, samples []float64) Verdict {
	t.Helper()
	var v Verdict
	for i, s := range samples {
		var dir comm.Directive
		dir, v = d.Step(0, s)
		_ = dir
		if i < len(samples)-1 && v != VerdictPending {
			t.Fatalf("premature verdict %v at step %d", v, i+1)
		}
	}
	if v == VerdictPending {
		t.Fatal("cycle ended without a verdict")
	}
	return v
}

func TestShutterDetectsMissSpike(t *testing.T) {
	d := NewShutterDetector(DefaultConfig())
	// Position 0 is the contaminated pre-cycle sample. Burst 100 vs steady
	// 20: spike of 80 > noise 20 and > 5% relative.
	v := runShutterCycle(t, d, shutterCycle(999, 20, 100))
	if v != VerdictContention {
		t.Errorf("verdict = %v, want contention", v)
	}
}

func TestShutterIgnoresFlatNeighbor(t *testing.T) {
	d := NewShutterDetector(DefaultConfig())
	v := runShutterCycle(t, d, shutterCycle(999, 50, 50))
	if v != VerdictNoContention {
		t.Errorf("verdict = %v, want no-contention", v)
	}
}

func TestShutterNoiseThresholdFiltersSmallAbsoluteSpikes(t *testing.T) {
	// Relative spike is huge (5 -> 15 is +200%) but absolute delta 10 <
	// noise threshold 20: a quiet neighbour must not trigger contention.
	d := NewShutterDetector(DefaultConfig())
	v := runShutterCycle(t, d, shutterCycle(0, 5, 15))
	if v != VerdictNoContention {
		t.Errorf("verdict = %v, want no-contention for sub-noise spike", v)
	}
}

func TestShutterImpactFactorFiltersRelativelySmallSpikes(t *testing.T) {
	// Absolute delta 30 > noise 20, but relative spike 3% < impact 5%.
	d := NewShutterDetector(DefaultConfig())
	v := runShutterCycle(t, d, shutterCycle(0, 1000, 1030))
	if v != VerdictNoContention {
		t.Errorf("verdict = %v, want no-contention for sub-impact spike", v)
	}
}

func TestShutterCyclesAreIndependent(t *testing.T) {
	d := NewShutterDetector(DefaultConfig())
	if v := runShutterCycle(t, d, shutterCycle(0, 20, 100)); v != VerdictContention {
		t.Fatalf("first cycle = %v", v)
	}
	// Second cycle flat: the spike of cycle one must not leak in.
	if v := runShutterCycle(t, d, shutterCycle(0, 100, 100)); v != VerdictNoContention {
		t.Errorf("second cycle = %v, want no-contention", v)
	}
}

func TestShutterResetDiscardsPartialCycle(t *testing.T) {
	d := NewShutterDetector(DefaultConfig())
	d.Step(0, 1000)
	d.Step(0, 1000)
	d.Reset()
	// A fresh flat cycle must be judged on its own samples only.
	if v := runShutterCycle(t, d, shutterCycle(0, 50, 50)); v != VerdictNoContention {
		t.Errorf("post-reset cycle = %v, want no-contention", v)
	}
}

func TestShutterTransientSkipIgnoresRefillDecay(t *testing.T) {
	// With a cache-refill transient at the head of the shutter span, plain
	// whole-span averages hide the contention signal; the transient skip
	// must recover it. steady = positions 6..9; burst = positions 15..19.
	samples := []float64{
		900,                        // position 0: pre-cycle, excluded
		3000, 2000, 1500, 900, 500, // shutter refill decay (skipped)
		40, 40, 40, 40, // settled shutter tail -> steady = 40
		100, 200, 300, 400, 500, // burst ramp (skipped)
		520, 525, 530, 535, 540, // settled burst tail -> burst = 530
	}
	if len(samples) != endPoint {
		t.Fatalf("fixture has %d samples, want endPoint %d", len(samples), endPoint)
	}
	// Without the skip the same samples read as no contention: the
	// whole-span shutter average sits above the whole-span burst average.
	mean := func(xs []float64) (sum float64) {
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if steady, burst := mean(samples[1:switchPoint]), mean(samples[switchPoint:]); burst-steady > noiseThresh {
		t.Fatalf("fixture's whole-span averages (steady %v, burst %v) already show the spike", steady, burst)
	}
	v := runShutterCycle(t, NewShutterDetector(DefaultConfig()), samples)
	if v != VerdictContention {
		t.Errorf("verdict = %v, want contention (skip should expose the settled tails)", v)
	}
}

func TestRuleDetectorBothHeavyMeansContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsageThresh = 30
	cfg.WindowSize = 4
	d := NewRuleDetector(cfg)
	var v Verdict
	for i := 0; i < 4; i++ {
		_, v = d.Step(100, 100)
	}
	if v != VerdictContention {
		t.Errorf("both-heavy verdict = %v, want contention", v)
	}
	if d.lWindow.Mean() != 100 || d.rWindow.Mean() != 100 {
		t.Errorf("means = %v,%v", d.lWindow.Mean(), d.rWindow.Mean())
	}
}

func TestRuleDetectorQuietEitherSideMeansNoContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsageThresh = 30
	cfg.WindowSize = 2
	cases := []struct {
		name     string
		own, nbr float64
	}{
		{"own quiet", 5, 100},
		{"neighbor quiet", 100, 5},
		{"both quiet", 5, 5},
	}
	for _, c := range cases {
		d := NewRuleDetector(cfg)
		var v Verdict
		for i := 0; i < 2; i++ {
			_, v = d.Step(c.own, c.nbr)
		}
		if v != VerdictNoContention {
			t.Errorf("%s: verdict = %v, want no-contention", c.name, v)
		}
	}
}

func TestRuleDetectorThresholdBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsageThresh = 30
	cfg.WindowSize = 1
	d := NewRuleDetector(cfg)
	// Algorithm 2 uses strict less-than: exactly-at-threshold is heavy.
	if _, v := d.Step(30, 30); v != VerdictContention {
		t.Errorf("at-threshold verdict = %v, want contention", v)
	}
	if _, v := d.Step(29.999, 30); v != VerdictNoContention {
		t.Errorf("below-threshold verdict = %v, want no-contention", v)
	}
}

func TestRuleDetectorDirectiveAlwaysRun(t *testing.T) {
	d := NewRuleDetector(DefaultConfig())
	for i := 0; i < 20; i++ {
		dir, _ := d.Step(1000, 1000)
		if dir != comm.DirectiveRun {
			t.Fatal("rule detector tried to pause during detection (it is passive)")
		}
	}
}

func TestRuleDetectorWindowSmoothsTransients(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsageThresh = 30
	cfg.WindowSize = 10
	d := NewRuleDetector(cfg)
	for i := 0; i < 10; i++ {
		if _, v := d.Step(100, 100); v != VerdictContention {
			t.Fatalf("step %d: verdict %v, want contention", i, v)
		}
	}
	// One quiet sample must not flip a 10-sample window below threshold.
	if _, v := d.Step(0, 0); v != VerdictContention {
		t.Errorf("single quiet sample flipped verdict to %v", v)
	}
}

// TestRandomDetectorHalfProbabilityAndDeterminism: the §6.4 baseline at
// randomSeed flips a fair coin, and two detectors draw the same sequence.
func TestRandomDetectorHalfProbabilityAndDeterminism(t *testing.T) {
	d1 := NewRandomDetector(DefaultConfig())
	d2 := NewRandomDetector(DefaultConfig())
	contending := 0
	const n = 2000
	for i := 0; i < n; i++ {
		_, v1 := d1.Step(0, 0)
		_, v2 := d2.Step(0, 0)
		if v1 != v2 {
			t.Fatal("same-seed random detectors diverged")
		}
		switch v1 {
		case VerdictContention:
			contending++
		case VerdictPending:
			t.Fatalf("step %d: random detector withheld its verdict", i)
		}
	}
	frac := float64(contending) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("contention fraction = %v, want ~0.5", frac)
	}
	d1.Reset() // no-op, must not panic
}

func TestDetectorConstructorsValidateConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.WindowSize = 0
	for _, f := range []func(){
		func() { NewShutterDetector(bad) },
		func() { NewRuleDetector(bad) },
		func() { NewRandomDetector(bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted by a detector constructor")
				}
			}()
			f()
		}()
	}
}
