package caer

import (
	"math/rand"
	"testing"

	"caer/internal/comm"
	"caer/internal/telemetry"
)

// randomDetector emits random pending/contention/no-contention verdicts and
// random probing directives, driven by a seeded RNG.
type randomVerdictDetector struct {
	rng *rand.Rand
}

func (d *randomVerdictDetector) Name() string { return "random-verdicts" }

func (d *randomVerdictDetector) Step(own, nbr float64) (comm.Directive, Verdict) {
	dir := comm.DirectiveRun
	if d.rng.Intn(2) == 0 {
		dir = comm.DirectivePause
	}
	switch d.rng.Intn(3) {
	case 0:
		return dir, VerdictPending
	case 1:
		return dir, VerdictContention
	default:
		return dir, VerdictNoContention
	}
}

func (d *randomVerdictDetector) Reset() {}

// randomResponder reacts with random directives and hold lengths, and
// randomly releases holds.
type randomResponder struct {
	rng *rand.Rand
}

func (r *randomResponder) Name() string { return "random-response" }

func (r *randomResponder) React(c bool, v View) (comm.Directive, int) {
	dir := comm.DirectiveRun
	if r.rng.Intn(2) == 0 {
		dir = comm.DirectivePause
	}
	return dir, 1 + r.rng.Intn(6)
}

func (r *randomResponder) Hold(v View) (comm.Directive, bool) {
	dir := comm.DirectiveRun
	if r.rng.Intn(2) == 0 {
		dir = comm.DirectivePause
	}
	return dir, r.rng.Intn(5) == 0
}

func (r *randomResponder) Reset() {}

// TestEngineStateMachineInvariants fuzzes the engine with random detector
// and responder behaviour and checks the accounting invariants of the
// Figure 5 state machine hold for any trajectory.
func TestEngineStateMachineInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		tab := comm.NewTable(8)
		nbr := tab.Register("lat", comm.RoleLatency)
		own := tab.Register("batch", comm.RoleBatch)
		det := &randomVerdictDetector{rng: rand.New(rand.NewSource(seed))}
		resp := &randomResponder{rng: rand.New(rand.NewSource(seed + 1000))}
		e := NewEngine(det, resp, own, []*comm.Slot{nbr})
		rec := privateLane(e)

		const periods = 500
		rng := rand.New(rand.NewSource(seed + 2000))
		for p := 0; p < periods; p++ {
			nbr.Publish(float64(rng.Intn(1000)))
			d := e.Tick(float64(rng.Intn(1000)))
			if d != e.Directive() {
				t.Fatalf("seed %d: returned directive %v != engine directive %v", seed, d, e.Directive())
			}
		}
		st := e.Stats()
		if st.Periods != periods {
			t.Fatalf("seed %d: periods = %d, want %d", seed, st.Periods, periods)
		}
		if st.PausedPeriods+st.RunPeriods != st.Periods {
			t.Errorf("seed %d: paused %d + run %d != periods %d", seed, st.PausedPeriods, st.RunPeriods, st.Periods)
		}
		if st.DetectionTicks+st.HoldTicks != st.Periods {
			t.Errorf("seed %d: detect %d + hold %d != periods %d", seed, st.DetectionTicks, st.HoldTicks, st.Periods)
		}
		if st.CPositive+st.CNegative > st.DetectionTicks {
			t.Errorf("seed %d: more verdicts (%d) than detection ticks (%d)",
				seed, st.CPositive+st.CNegative, st.DetectionTicks)
		}
		// The engine published exactly one sample per period.
		if n := len(spansOf(rec, telemetry.SpanPublish)); n != periods {
			t.Errorf("seed %d: %d publish spans, want %d", seed, n, periods)
		}
		// The span lane is consistent: one detect span per counted verdict.
		if n := uint64(len(spansOf(rec, telemetry.SpanDetect))); n != st.CPositive+st.CNegative {
			t.Errorf("seed %d: %d detect spans for %d verdicts", seed, n, st.CPositive+st.CNegative)
		}
	}
}
