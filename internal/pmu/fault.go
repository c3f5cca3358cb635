package pmu

import (
	"fmt"
	"math/rand"
	"sync"

	"caer/internal/telemetry"
)

// FaultConfig parameterises a FaultSource. Every probability is evaluated
// once per ReadCounter call and at most one fault fires per read (the
// probabilities are stacked, so their sum must not exceed 1). All injection
// is driven by a single seeded generator: the same seed and read sequence
// reproduce the same fault schedule exactly.
type FaultConfig struct {
	// Seed drives the fault schedule deterministically.
	Seed int64

	// ResetProb is the per-read probability that the counter resets: the
	// cumulative count restarts from zero, as a perf_event fd does under
	// PERF_EVENT_IOC_RESET or reset-on-exec. The reader observes a value
	// regression.
	ResetProb float64

	// SpikeProb is the per-read probability of a spurious forward jump of
	// up to SpikeMax counts. The jump persists (cumulative counters only
	// move forward), so the consumer sees one inflated delta.
	SpikeProb float64
	// SpikeMax bounds the jump magnitude (default 1 << 20).
	SpikeMax uint64

	// DropProb is the per-read probability that the probe is dropped: the
	// read returns the previously returned value (a stale read), and the
	// counts accumulated meanwhile surface in the next successful read.
	DropProb float64

	// JitterProb is the per-read probability of probe jitter: the returned
	// value is transiently offset by up to JitterMax counts, modelling a
	// probe that fires early or late within the period. Because the offset
	// does not persist, the following read can appear to regress slightly.
	JitterProb float64
	// JitterMax bounds the jitter magnitude (default 64).
	JitterMax uint64
}

// Validate reports the first configuration error, or nil.
func (c FaultConfig) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ResetProb", c.ResetProb},
		{"SpikeProb", c.SpikeProb},
		{"DropProb", c.DropProb},
		{"JitterProb", c.JitterProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("pmu: %s %v out of [0,1]", p.name, p.v)
		}
	}
	if sum := c.ResetProb + c.SpikeProb + c.DropProb + c.JitterProb; sum > 1 {
		return fmt.Errorf("pmu: fault probabilities sum to %v > 1", sum)
	}
	return nil
}

// FaultCounts tallies the faults a FaultSource has injected.
type FaultCounts struct {
	Resets  uint64
	Spikes  uint64
	Drops   uint64
	Jitters uint64
}

// faultState is one (core, event) counter's fault bookkeeping.
type faultState struct {
	offset    uint64 // persistent spurious-jump accumulation
	resetBase uint64 // underlying count at the last injected reset
	last      uint64 // last value returned (replayed on dropped reads)
	read      bool   // last is valid
}

// FaultSource wraps a Source and deterministically injects the counter
// pathologies a deployed PMU probe must survive: counter resets, spurious
// forward jumps, dropped (stale) reads, and probe jitter. It is the
// substrate of the chaos regimes in internal/experiments — the consumer
// stack (PMU.ReadDelta, the communication table, the engines) must degrade
// gracefully under every fault class, never emitting underflow deltas or
// wedging batch applications.
//
// FaultSource is safe for concurrent use and reproducible: a given
// (seed, read sequence) pair always yields the same fault schedule.
type FaultSource struct {
	src  Source
	peek peekFunc // src's side-effect-free read path
	cfg  FaultConfig

	mu     sync.Mutex
	rng    *rand.Rand
	state  []([numEvents]faultState) // indexed by core, grown on demand
	counts FaultCounts
}

// NewFaultSource wraps src with the given fault schedule. It panics on an
// invalid configuration (chaos harness wiring errors should be loud).
func NewFaultSource(src Source, cfg FaultConfig) *FaultSource {
	if src == nil {
		panic("pmu: fault source needs an underlying source")
	}
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.SpikeMax == 0 {
		cfg.SpikeMax = 1 << 20
	}
	if cfg.JitterMax == 0 {
		cfg.JitterMax = 64
	}
	return &FaultSource{src: src, peek: resolvePeeker(src), cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counts returns the faults injected so far.
func (f *FaultSource) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts
}

// ReadCounter implements Source, injecting at most one fault per read.
func (f *FaultSource) ReadCounter(core int, ev Event) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	for core >= len(f.state) {
		//caer:allow hotpath grows once per newly seen core, then reads are steady-state allocation-free; chaos harness only, never deployed
		f.state = append(f.state, [numEvents]faultState{})
	}
	st := &f.state[core][ev]
	raw := f.src.ReadCounter(core, ev)

	v := raw + st.offset - st.resetBase
	roll := f.rng.Float64()
	switch {
	case roll < f.cfg.ResetProb:
		// The counter restarts from zero: rebase so the reported
		// cumulative value regresses to (almost) nothing.
		st.resetBase = raw + st.offset
		f.counts.Resets++
		telemetry.PMUFaultResets.Inc()
		v = 0
	case roll < f.cfg.ResetProb+f.cfg.SpikeProb:
		jump := uint64(f.rng.Int63n(int64(f.cfg.SpikeMax))) + 1
		st.offset += jump
		f.counts.Spikes++
		telemetry.PMUFaultSpikes.Inc()
		v += jump
	case roll < f.cfg.ResetProb+f.cfg.SpikeProb+f.cfg.DropProb:
		if st.read {
			f.counts.Drops++
			telemetry.PMUFaultDrops.Inc()
			return st.last // stale read; do not advance last
		}
	case roll < f.cfg.ResetProb+f.cfg.SpikeProb+f.cfg.DropProb+f.cfg.JitterProb:
		// Transient early/late probe: over-report now, which makes the
		// next clean read appear to regress by the same amount.
		f.counts.Jitters++
		telemetry.PMUFaultJitters.Inc()
		v += uint64(f.rng.Int63n(int64(f.cfg.JitterMax))) + 1
	}
	st.last = v
	st.read = true
	return v
}

// PeekCounter implements Peeker: it returns the value a fault-free read of
// the current counter state would see — the underlying count adjusted by
// the persistent offsets faults have already accumulated (spike offset,
// reset base) — without rolling the seeded schedule or mutating any
// bookkeeping. Interleaving PeekCounter calls with ReadCounter therefore
// cannot perturb the deterministic fault sequence. After a dropped read the
// peeked value may run ahead of the last ReadCounter return; that is the
// drop semantics surfacing the withheld counts, not a new fault.
func (f *FaultSource) PeekCounter(core int, ev Event) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	raw := f.peek(core, ev)
	if core >= len(f.state) {
		// A core never read through the fault path has no adjustments yet.
		return raw
	}
	st := &f.state[core][ev]
	return raw + st.offset - st.resetBase
}
