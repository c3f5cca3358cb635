package pmu

import (
	"math"
	"testing"
)

// scriptedSource replays an explicit sequence of cumulative counter values
// for EventLLCMisses (other events read as zero), modelling resets, wraps,
// and frozen reads.
type scriptedSource struct {
	values []uint64
	i      int
}

func (s *scriptedSource) ReadCounter(core int, ev Event) uint64 {
	if ev != EventLLCMisses {
		return 0
	}
	if s.i >= len(s.values) {
		return s.values[len(s.values)-1]
	}
	v := s.values[s.i]
	s.i++
	return v
}

// TestReadDeltaRegressionTable drives ReadDelta over counter histories a
// deployed probe can observe — monotone growth, a mid-run reset to zero
// (PERF_EVENT_IOC_RESET / reset-on-exec), a partial regression (counter
// reprogrammed by another agent), and a 2^64 wrap — asserting the delta
// sequence never underflows and re-arms after each regression.
func TestReadDeltaRegressionTable(t *testing.T) {
	cases := []struct {
		name string
		// reads[0] arms the PMU (New calls Arm); reads[1:] are ReadDelta
		// observations.
		reads []uint64
		want  []uint64
	}{
		{
			name:  "monotone",
			reads: []uint64{100, 150, 150, 400},
			want:  []uint64{50, 0, 250},
		},
		{
			name:  "reset to zero",
			reads: []uint64{100, 180, 0, 30},
			want:  []uint64{80, 0, 30},
		},
		{
			name:  "partial regression",
			reads: []uint64{100, 500, 450, 460},
			want:  []uint64{400, 0, 10},
		},
		{
			name:  "wrap past 2^64",
			reads: []uint64{math.MaxUint64 - 10, math.MaxUint64 - 2, 5, 12},
			want:  []uint64{8, 0, 7},
		},
		{
			name:  "reset then catch up",
			reads: []uint64{1000, 1200, 7, 7, 207},
			want:  []uint64{200, 0, 0, 200},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := &scriptedSource{values: tc.reads}
			p := New(src, 0)
			for i, want := range tc.want {
				got := p.ReadDelta(EventLLCMisses)
				if got != want {
					t.Fatalf("delta %d = %d, want %d", i, got, want)
				}
				if got > math.MaxUint64/2 {
					t.Fatalf("delta %d = %d: underflow leaked through", i, got)
				}
			}
		})
	}
}

// TestPeekRegressionReportsZero covers the non-restarting read over a
// regressed counter: the peek sees the regressed value and leaves the
// armed base alone, and ReadDelta reports 0 for the regression, then
// re-arms.
func TestPeekRegressionReportsZero(t *testing.T) {
	src := &scriptedSource{values: []uint64{500, 300, 300, 340}}
	p := New(src, 0)
	if got := peek(p, EventLLCMisses); got != 300 || p.last[EventLLCMisses] != 500 {
		t.Fatalf("peek read %d with base %d, want the regressed 300 and the armed 500", got, p.last[EventLLCMisses])
	}
	// ReadDelta re-arms at 300; the next delta counts from there.
	if got := p.ReadDelta(EventLLCMisses); got != 0 {
		t.Fatalf("ReadDelta after regression = %d, want 0", got)
	}
	if got := p.ReadDelta(EventLLCMisses); got != 40 {
		t.Fatalf("ReadDelta after re-arm = %d, want 40", got)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	if err := (FaultConfig{ResetProb: 0.1, DropProb: 0.2}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (FaultConfig{ResetProb: -0.1}).Validate(); err == nil {
		t.Error("negative probability accepted")
	}
	if err := (FaultConfig{ResetProb: 0.6, SpikeProb: 0.6}).Validate(); err == nil {
		t.Error("probabilities summing past 1 accepted")
	}
}

func TestFaultSourcePassthroughWhenQuiet(t *testing.T) {
	src := newFakeSource()
	src.bump(0, EventLLCMisses, 42)
	fs := NewFaultSource(src, FaultConfig{Seed: 1})
	if got := fs.ReadCounter(0, EventLLCMisses); got != 42 {
		t.Fatalf("quiet fault source altered the count: %d != 42", got)
	}
	if c := fs.Counts(); (c.Resets + c.Spikes + c.Drops + c.Jitters) != 0 {
		t.Fatalf("quiet fault source injected %+v", c)
	}
}

func TestFaultSourceDeterministic(t *testing.T) {
	run := func() ([]uint64, FaultCounts) {
		src := newFakeSource()
		fs := NewFaultSource(src, FaultConfig{
			Seed: 7, ResetProb: 0.05, SpikeProb: 0.05, SpikeMax: 1000,
			DropProb: 0.1, JitterProb: 0.1, JitterMax: 10,
		})
		var out []uint64
		for i := 0; i < 500; i++ {
			src.bump(0, EventLLCMisses, 100)
			out = append(out, fs.ReadCounter(0, EventLLCMisses))
		}
		return out, fs.Counts()
	}
	a, ca := run()
	b, cb := run()
	if ca != cb {
		t.Fatalf("fault counts diverged: %+v vs %+v", ca, cb)
	}
	if (ca.Resets + ca.Spikes + ca.Drops + ca.Jitters) == 0 {
		t.Fatal("no faults injected over 500 reads at 30% total probability")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFaultSourceResetsRegressAndPMUHolds is the end-to-end pairing: a
// resetting source must regress, and PMU.ReadDelta over it must never
// yield an underflow delta.
func TestFaultSourceResetsRegressAndPMUHolds(t *testing.T) {
	src := newFakeSource()
	fs := NewFaultSource(src, FaultConfig{Seed: 3, ResetProb: 0.2})
	p := New(fs, 0)
	for i := 0; i < 2000; i++ {
		src.bump(0, EventLLCMisses, 50)
		d := p.ReadDelta(EventLLCMisses)
		if d > math.MaxUint64/2 {
			t.Fatalf("read %d: underflow delta %d", i, d)
		}
	}
	if c := fs.Counts(); c.Resets == 0 {
		t.Fatalf("no resets injected: %+v", c)
	}
}

// TestFaultSourceDropsFreezeReads checks the stale-read class: a dropped
// probe replays the previous value, so consecutive reads can be equal even
// while the underlying counter advances, and the deficit surfaces later.
func TestFaultSourceDropsFreezeReads(t *testing.T) {
	src := newFakeSource()
	fs := NewFaultSource(src, FaultConfig{Seed: 11, DropProb: 0.5})
	var frozen bool
	var prev uint64
	for i := 0; i < 200; i++ {
		src.bump(0, EventInstrRetired, 10)
		v := fs.ReadCounter(0, EventInstrRetired)
		if i > 0 && v == prev {
			frozen = true
		}
		if v < prev {
			t.Fatalf("read %d regressed under drops alone: %d < %d", i, v, prev)
		}
		prev = v
	}
	if !frozen {
		t.Fatal("no frozen read observed at 50% drop probability")
	}
	if c := fs.Counts(); c.Drops == 0 {
		t.Fatalf("no drops tallied: %+v", c)
	}
}

func TestFaultSourcePanicsOnBadWiring(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFaultSource(nil, ...) did not panic")
		}
	}()
	NewFaultSource(nil, FaultConfig{})
}
