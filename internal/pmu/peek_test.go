package pmu

import (
	"sync"
	"testing"
)

// TestPeekFaultDeterminismRegression pins the satellite bugfix: Peek used
// to route through Source.ReadCounter, so every Peek advanced the seeded
// FaultSource schedule — interleaving Peeks with ReadDeltas perturbed the
// deterministic fault sequence and could double-apply a fault to one
// period. Two identical fault stacks, one interleaving Peeks, must now
// produce identical delta streams and identical fault tallies.
func TestPeekFaultDeterminismRegression(t *testing.T) {
	cfg := FaultConfig{Seed: 42, ResetProb: 0.08, SpikeProb: 0.08, DropProb: 0.08, JitterProb: 0.08}
	srcA, srcB := &settableSource{}, &settableSource{}
	fsA, fsB := NewFaultSource(srcA, cfg), NewFaultSource(srcB, cfg)
	pA, pB := New(fsA, 0), New(fsB, 0)
	for i := 0; i < 1000; i++ {
		srcA.add(0, EventLLCMisses, 200)
		srcB.add(0, EventLLCMisses, 200)
		// B peeks several times between probes; A never does.
		for j := 0; j < 1+i%3; j++ {
			peek(pB, EventLLCMisses)
		}
		dA := pA.ReadDelta(EventLLCMisses)
		dB := pB.ReadDelta(EventLLCMisses)
		if dA != dB {
			t.Fatalf("delta diverged at period %d: %d (no peeks) vs %d (interleaved peeks)", i, dA, dB)
		}
	}
	if fsA.Counts() != fsB.Counts() {
		t.Fatalf("fault schedules diverged: %+v vs %+v", fsA.Counts(), fsB.Counts())
	}
}

// TestPeekFaultDeterminismConcurrent is the -race variant: a concurrent
// peeker hammers the fault source while the probe loop reads deltas. The
// deltas must match a peek-free reference stream exactly — concurrent
// peeks may interleave anywhere but can never mutate fault state.
func TestPeekFaultDeterminismConcurrent(t *testing.T) {
	cfg := FaultConfig{Seed: 99, ResetProb: 0.05, SpikeProb: 0.05, DropProb: 0.05, JitterProb: 0.05}
	srcA, srcB := &settableSource{}, &settableSource{}
	fsA, fsB := NewFaultSource(srcA, cfg), NewFaultSource(srcB, cfg)
	pA, pB := New(fsA, 0), New(fsB, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Peek at the source, which is safe for concurrent use; a
				// PMU view is single-owner and pB belongs to the probe loop.
				fsB.PeekCounter(0, EventLLCMisses)
				fsB.PeekCounter(0, EventInstrRetired)
			}
		}
	}()
	for i := 0; i < 500; i++ {
		srcA.add(0, EventLLCMisses, 150)
		srcB.add(0, EventLLCMisses, 150)
		dA := pA.ReadDelta(EventLLCMisses)
		dB := pB.ReadDelta(EventLLCMisses)
		if dA != dB {
			close(stop)
			wg.Wait()
			t.Fatalf("delta diverged at period %d under concurrent peeks: %d vs %d", i, dA, dB)
		}
	}
	close(stop)
	wg.Wait()
	if fsA.Counts() != fsB.Counts() {
		t.Fatalf("fault schedules diverged under concurrent peeks: %+v vs %+v", fsA.Counts(), fsB.Counts())
	}
}

// TestFaultSourcePeekCounterMatchesEffectiveValue checks the peek view is
// consistent with the read view: after any prefix of reads, PeekCounter
// must equal the value a fault-free continuation would read (offset and
// reset adjustments applied), and peeking an untouched core reads the raw
// counter.
func TestFaultSourcePeekCounterMatchesEffectiveValue(t *testing.T) {
	src := &settableSource{}
	fs := NewFaultSource(src, FaultConfig{Seed: 3, SpikeProb: 0.3, ResetProb: 0.1})
	for i := 0; i < 200; i++ {
		src.add(0, EventLLCMisses, 100)
		got := fs.ReadCounter(0, EventLLCMisses)
		// Drop-free config: the read's value reflects all adjustments, so
		// an immediate peek must agree with it exactly.
		if pk := fs.PeekCounter(0, EventLLCMisses); pk != got {
			t.Fatalf("read %d: PeekCounter %d != ReadCounter %d", i, pk, got)
		}
	}
	// A core the fault path never touched peeks the raw value.
	src.add(3, EventCycles, 777)
	if pk := fs.PeekCounter(3, EventCycles); pk != 777 {
		t.Fatalf("untouched core peeked %d, want raw 777", pk)
	}
}

// TestSamplerHistoryNilWhenNotRecording keeps the nil contract.
func TestSamplerHistoryNilWhenNotRecording(t *testing.T) {
	s := NewSampler(New(newFakeSource(), 0), []Event{EventLLCMisses}, false)
	s.Probe()
	if s.history != nil {
		t.Fatalf("history = %v without recording, want nil", s.history)
	}
}
