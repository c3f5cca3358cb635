package workload

import (
	"fmt"
	"math/rand"
)

// Phase pairs a generator with how many references it runs before the
// program moves to the next phase.
type Phase struct {
	Gen      Generator
	Duration uint64 // references; must be positive
}

// Phased cycles through a sequence of phases, reproducing the periodic
// LLC-miss phase behaviour the paper's Figure 3 shows for xalancbmk and
// mcf: alternating cache-hungry and cache-quiet program regions.
type Phased struct {
	phases []Phase
	idx    int
	used   uint64
}

// NewPhased constructs a cyclic phase sequence. It panics on an empty
// sequence or a non-positive duration.
func NewPhased(phases []Phase) *Phased {
	if len(phases) == 0 {
		panic("workload: phased generator needs at least one phase")
	}
	for i, p := range phases {
		if p.Gen == nil {
			panic(fmt.Sprintf("workload: phase %d has nil generator", i))
		}
		if p.Duration == 0 {
			panic(fmt.Sprintf("workload: phase %d has zero duration", i))
		}
	}
	ps := make([]Phase, len(phases))
	copy(ps, phases)
	return &Phased{phases: ps}
}

// Name implements Generator.
func (p *Phased) Name() string { return fmt.Sprintf("phased(%d)", len(p.phases)) }

// Next implements Generator, advancing to the next phase when the current
// phase's duration is exhausted. Phases cycle indefinitely.
func (p *Phased) Next(r *rand.Rand) Access {
	ph := p.phases[p.idx]
	a := ph.Gen.Next(r)
	p.used++
	if p.used >= ph.Duration {
		p.used = 0
		p.idx = (p.idx + 1) % len(p.phases)
	}
	return a
}

// Reset implements Resetter, rewinding to the first phase and resetting
// children.
func (p *Phased) Reset() {
	p.idx, p.used = 0, 0
	for _, ph := range p.phases {
		Reset(ph.Gen)
	}
}
