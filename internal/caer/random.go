package caer

import (
	"math/rand"

	"caer/internal/comm"
)

// RandomDetector is the baseline heuristic of §6.4: it reports contention
// with probability randomP and no contention otherwise, ignoring the PMU
// samples entirely. The paper uses it (with P = 0.5 and a
// red-light/green-light response of length 1) to define detection accuracy
// A = U_h/U_r − 1 (Equation 2): a real heuristic should sacrifice *more*
// utilization than random for interference-sensitive neighbours and gain
// *more* than random for insensitive ones.
type RandomDetector struct {
	rng *rand.Rand
}

// NewRandomDetector constructs the baseline, seeded with randomSeed. It
// panics on an invalid configuration.
func NewRandomDetector(cfg Config) *RandomDetector {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &RandomDetector{rng: rand.New(rand.NewSource(randomSeed))}
}

// Step implements Detector: a coin flip per period.
func (d *RandomDetector) Step(ownMisses, neighborMisses float64) (comm.Directive, Verdict) {
	if d.rng.Float64() < randomP {
		return comm.DirectiveRun, VerdictContention
	}
	return comm.DirectiveRun, VerdictNoContention
}

// Reset implements Detector (no cycle state to discard).
func (d *RandomDetector) Reset() {}
