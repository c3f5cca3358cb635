package caer

import (
	"testing"
	"testing/quick"
)

// propTrace generates a deterministic pseudo-random (own, neighbor) sample
// trace from seed using an xorshift generator, so property runs are
// reproducible from the failing input alone. Samples span quiet (<50) to
// heavy (>400) miss rates so both verdict branches are exercised.
func propTrace(seed uint64, n int) (own, neighbor []float64) {
	s := seed | 1
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s % 500)
	}
	own = make([]float64, n)
	neighbor = make([]float64, n)
	for i := range own {
		own[i] = next()
		neighbor[i] = next()
	}
	return own, neighbor
}

// shutterContentions replays a fixed trace through a fresh ShutterDetector
// and returns the contention-cycle count. The detector is fed directly —
// no responder/hold feedback — so two configurations see byte-identical
// samples and differ only in their thresholds.
func shutterContentions(cfg Config, own, neighbor []float64) (contention uint64) {
	d := NewShutterDetector(cfg)
	for i := range own {
		if _, v := d.Step(own[i], neighbor[i]); v == VerdictContention {
			contention++
		}
	}
	return contention
}

// TestShutterThresholdMonotonicity pins the Algorithm 1 verdict predicate's
// monotonicity in its QoS knob: on a fixed trace, raising ImpactFactor can
// only flip contention cycles to no-contention, never the reverse. The
// verdict fires iff (burst-steady) > noiseThresh AND burst >
// steady*(1+ImpactFactor), and both averages are non-negative miss counts,
// so the second conjunct is antitone in ImpactFactor.
func TestShutterThresholdMonotonicity(t *testing.T) {
	prop := func(seed uint64, impactBump uint16) bool {
		cfg := DefaultConfig()
		own, neighbor := propTrace(seed, 12*endPoint)
		base := shutterContentions(cfg, own, neighbor)

		stricter := cfg
		stricter.ImpactFactor += float64(impactBump) / 100 // up to +655.35 relative
		if got := shutterContentions(stricter, own, neighbor); got > base {
			t.Logf("seed=%d ImpactFactor %v->%v raised contentions %d->%d",
				seed, cfg.ImpactFactor, stricter.ImpactFactor, base, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRulePolarity pins Algorithm 2's verdict polarity on arbitrary traces:
// after every step, the detector asserts contention iff BOTH windowed
// averages are at or above UsageThresh — never on one side alone, and
// always when both qualify.
func TestRulePolarity(t *testing.T) {
	prop := func(seed uint64, threshCentis uint16) bool {
		cfg := DefaultConfig()
		cfg.UsageThresh = float64(threshCentis) / 100 // [0, 655.35) misses/period
		own, neighbor := propTrace(seed, 8*cfg.WindowSize)
		d := NewRuleDetector(cfg)
		for i := range own {
			_, verdict := d.Step(own[i], neighbor[i])
			want := d.lWindow.Mean() >= cfg.UsageThresh && d.rWindow.Mean() >= cfg.UsageThresh
			if got := verdict == VerdictContention; got != want {
				t.Logf("seed=%d step=%d thresh=%v ownMean=%v neighborMean=%v verdict=%v want contention=%v",
					seed, i, cfg.UsageThresh, d.lWindow.Mean(), d.rWindow.Mean(), verdict, want)
				return false
			}
			if verdict != VerdictContention && verdict != VerdictNoContention {
				t.Logf("seed=%d step=%d: rule detector emitted non-terminal verdict %v", seed, i, verdict)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
