package pmu

import (
	"sync"
	"testing"
)

// settableSource is a test Source whose counts the test sets directly, so
// its values never depend on how many times it is read.
type settableSource struct {
	mu sync.Mutex
	v  [8][numEvents]uint64
}

func (s *settableSource) ReadCounter(core int, ev Event) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.v[core][ev]
}

func (s *settableSource) add(core int, ev Event, d uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.v[core][ev] += d
}

func TestThresholdFiresOnWindowSum(t *testing.T) {
	src := &settableSource{}
	tr := NewThreshold(src, 0, ThresholdConfig{Event: EventLLCMisses, Bound: 100, Window: 4})
	tr.Arm()
	if !tr.armed {
		t.Fatal("trigger not armed after Arm")
	}
	// 30 misses/period: window sum reaches 120 >= 100 on the 4th check.
	for i := 1; i <= 3; i++ {
		src.add(0, EventLLCMisses, 30)
		if tr.Check() {
			t.Fatalf("fired early at check %d", i)
		}
	}
	src.add(0, EventLLCMisses, 30)
	if !tr.Check() {
		t.Fatal("did not fire once the window sum crossed the bound")
	}
	if tr.armed {
		t.Fatal("trigger still armed after firing")
	}
	// Disarmed: further checks are no-ops even under heavy pressure.
	src.add(0, EventLLCMisses, 10_000)
	if tr.Check() {
		t.Fatal("disarmed trigger fired")
	}
}

func TestThresholdWindowSlides(t *testing.T) {
	src := &settableSource{}
	tr := NewThreshold(src, 0, ThresholdConfig{Event: EventLLCMisses, Bound: 100, Window: 2})
	tr.Arm()
	// 40/period never sums past 80 in a 2-window: old deltas must expire.
	for i := 0; i < 50; i++ {
		src.add(0, EventLLCMisses, 40)
		if tr.Check() {
			t.Fatalf("fired at check %d with window sum below the bound", i)
		}
	}
	// One burst period tips the sliding sum over.
	src.add(0, EventLLCMisses, 70)
	if !tr.Check() {
		t.Fatal("did not fire on the burst period")
	}
}

func TestThresholdArmRebasesAndResetHardening(t *testing.T) {
	src := &settableSource{}
	src.add(0, EventLLCMisses, 5_000)
	tr := NewThreshold(src, 0, ThresholdConfig{Event: EventLLCMisses, Bound: 50, Window: 4})
	tr.Arm()
	// The pre-arm 5000 counts must not fire the trigger.
	if tr.Check() {
		t.Fatal("fired on counts accumulated before Arm")
	}
	// A counter regression (reset fault) contributes zero, not ~2^64.
	src.mu.Lock()
	src.v[0][EventLLCMisses] = 0
	src.mu.Unlock()
	if tr.Check() {
		t.Fatal("fired on a regressed counter")
	}
	// Counting resumes from the regressed base.
	src.add(0, EventLLCMisses, 60)
	if !tr.Check() {
		t.Fatal("did not fire after counting resumed past the bound")
	}
}

func TestThresholdDoesNotAdvanceFaultSchedule(t *testing.T) {
	// Two identical fault stacks over identical sources; one also runs a
	// threshold trigger. The PMU delta streams must match exactly: trigger
	// checks read through the Peeker path and must not consume the seeded
	// schedule.
	cfg := FaultConfig{Seed: 7, ResetProb: 0.05, SpikeProb: 0.05, DropProb: 0.05, JitterProb: 0.05}
	srcA, srcB := &settableSource{}, &settableSource{}
	fsA, fsB := NewFaultSource(srcA, cfg), NewFaultSource(srcB, cfg)
	pA, pB := New(fsA, 0), New(fsB, 0)
	tr := NewThreshold(fsB, 0, ThresholdConfig{Event: EventLLCMisses, Bound: 1 << 62, Window: 4})
	tr.Arm()
	for i := 0; i < 500; i++ {
		srcA.add(0, EventLLCMisses, 123)
		srcB.add(0, EventLLCMisses, 123)
		tr.Check()
		dA := pA.ReadDelta(EventLLCMisses)
		dB := pB.ReadDelta(EventLLCMisses)
		if dA != dB {
			t.Fatalf("delta diverged at read %d: %d vs %d (trigger perturbed the fault schedule)", i, dA, dB)
		}
	}
	if fsA.Counts() != fsB.Counts() {
		t.Fatalf("fault counts diverged: %+v vs %+v", fsA.Counts(), fsB.Counts())
	}
}

func TestThresholdConfigValidate(t *testing.T) {
	cases := []ThresholdConfig{
		{Event: Event(-1), Bound: 10, Window: 2},
		{Event: numEvents, Bound: 10, Window: 2},
		{Event: EventLLCMisses, Bound: 0, Window: 2},
		{Event: EventLLCMisses, Bound: 10, Window: 0},
	}
	for i, c := range cases {
		if c.Validate() == nil {
			t.Errorf("case %d: invalid config %+v passed Validate", i, c)
		}
	}
	if err := (ThresholdConfig{Event: EventLLCMisses, Bound: 10, Window: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestThresholdCheckAllocationFree(t *testing.T) {
	src := &settableSource{}
	tr := NewThreshold(src, 0, ThresholdConfig{Event: EventLLCMisses, Bound: 1 << 62, Window: 8})
	tr.Arm()
	if n := testing.AllocsPerRun(200, func() {
		src.add(0, EventLLCMisses, 1)
		tr.Check()
	}); n != 0 {
		t.Fatalf("Threshold.Check allocates %v objects/op, want 0", n)
	}
}
