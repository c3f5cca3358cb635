package caer

import (
	"testing"

	"caer/internal/comm"
)

// fakeView is a scripted Responder view.
type fakeView struct {
	own, neighbor, last float64
}

func (f fakeView) OwnMean() float64      { return f.own }
func (f fakeView) NeighborMean() float64 { return f.neighbor }
func (f fakeView) LastNeighbor() float64 { return f.last }

func TestRedLightGreenLightFixed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseLength = 10
	r := NewRedLightGreenLight(cfg)
	v := fakeView{}

	dir, n := r.React(true, v)
	if dir != comm.DirectivePause || n != 10 {
		t.Errorf("React(contending) = %v,%d, want pause,10", dir, n)
	}
	// Holds keep the light red and never release early.
	for i := 0; i < 9; i++ {
		d, release := r.Hold(v)
		if d != comm.DirectivePause || release {
			t.Fatalf("hold %d = %v,%v", i, d, release)
		}
	}
	dir, n = r.React(false, v)
	if dir != comm.DirectiveRun || n != 10 {
		t.Errorf("React(clear) = %v,%d, want run,10", dir, n)
	}
	if d, _ := r.Hold(v); d != comm.DirectiveRun {
		t.Error("green hold did not stay green")
	}
}

func TestRedLightGreenLightAdaptiveGrowth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseLength = 15
	cfg.AdaptiveResponse = true
	r := NewRedLightGreenLight(cfg)
	v := fakeView{}

	lengths := []int{}
	for i := 0; i < 5; i++ {
		_, n := r.React(true, v)
		lengths = append(lengths, n)
	}
	// First verdict: base 15. Consistent repeats double, capped at
	// maxResponseLength (80).
	want := []int{15, 30, 60, maxResponseLength, maxResponseLength}
	for i := range want {
		if lengths[i] != want[i] {
			t.Errorf("consistent verdict %d length = %d, want %d", i, lengths[i], want[i])
		}
	}
	// A flipped verdict snaps back to the base length.
	if _, n := r.React(false, v); n != 15 {
		t.Errorf("flipped verdict length = %d, want 15", n)
	}
	// And doubles again on its own consistency.
	if _, n := r.React(false, v); n != 30 {
		t.Errorf("second consistent clear length = %d, want 30", n)
	}
	if r.Name() != "red-light-green-light(adaptive)" {
		t.Errorf("Name = %q", r.Name())
	}
}

func TestRedLightGreenLightReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ResponseLength = 4
	cfg.AdaptiveResponse = true
	r := NewRedLightGreenLight(cfg)
	v := fakeView{}
	r.React(true, v)
	r.React(true, v)
	r.Reset()
	if _, n := r.React(true, v); n != 4 {
		t.Errorf("post-reset length = %d, want base 4", n)
	}
}

func TestSoftLockTakesAndHoldsUnderPressure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UsageThresh = 30
	s := NewSoftLock(cfg)

	dir, n := s.React(true, fakeView{neighbor: 90})
	if dir != comm.DirectivePause || n != maxResponseLength {
		t.Fatalf("React(contending) = %v,%d, want pause,%d", dir, n, maxResponseLength)
	}
	// Neighbour still heavy: lock held.
	d, release := s.Hold(fakeView{neighbor: 90})
	if d != comm.DirectivePause || release {
		t.Errorf("Hold under pressure = %v,%v, want pause,false", d, release)
	}
	// Pressure subsides: the batch fully resumes.
	d, release = s.Hold(fakeView{neighbor: 10})
	if d != comm.DirectiveRun || !release {
		t.Errorf("Hold after subsiding = %v,%v, want run,true", d, release)
	}
}

func TestSoftLockClearVerdictRunsImmediately(t *testing.T) {
	s := NewSoftLock(DefaultConfig())
	dir, n := s.React(false, fakeView{})
	if dir != comm.DirectiveRun || n != 1 {
		t.Errorf("React(clear) = %v,%d, want run,1", dir, n)
	}
	if s.Name() != "soft-lock" {
		t.Errorf("Name = %q", s.Name())
	}
	s.Reset() // stateless; must not panic
}

func TestResponderConstructorsValidateConfig(t *testing.T) {
	bad := DefaultConfig()
	bad.ResponseLength = 0
	for _, f := range []func(){
		func() { NewRedLightGreenLight(bad) },
		func() { NewSoftLock(bad) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid config accepted by a responder constructor")
				}
			}()
			f()
		}()
	}
}
