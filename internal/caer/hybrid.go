package caer

import "caer/internal/comm"

// HybridDetector composes the two paper heuristics to cover each other's
// blind spots (an extension beyond the paper, motivated by its §6.4
// accuracy analysis):
//
//   - The rule-based heuristic is passive and cheap but cannot tell
//     *intrinsic* misses from *induced* ones: a latency-sensitive streamer
//     (libquantum) misses heavily no matter what the batch does, so the
//     rule locks the batch out for nothing.
//   - The burst-shutter measures causality directly — does halting the
//     batch actually lower the neighbour's misses? — but pays for it by
//     halting the batch during every probe, even for obviously quiet
//     pairs.
//
// The hybrid uses the rule as a zero-cost gate: while either application
// is quiet it reports no contention without ever perturbing the batch;
// only when both look heavy does it run one shutter cycle to confirm the
// batch is actually responsible.
type HybridDetector struct {
	rule       *RuleDetector
	shutter    *ShutterDetector
	confirming bool
}

// NewHybridDetector constructs the hybrid from cfg (it uses both
// heuristics' parameters). It panics on an invalid configuration.
func NewHybridDetector(cfg Config) *HybridDetector {
	return &HybridDetector{
		rule:    NewRuleDetector(cfg),
		shutter: NewShutterDetector(cfg),
	}
}

// Step implements Detector.
func (d *HybridDetector) Step(ownMisses, neighborMisses float64) (comm.Directive, Verdict) {
	// The rule's windows track every period, including confirmation
	// periods, so its averages stay current.
	_, ruleVerdict := d.rule.Step(ownMisses, neighborMisses)

	if !d.confirming {
		if ruleVerdict != VerdictContention {
			return comm.DirectiveRun, VerdictNoContention
		}
		// Both sides look heavy: spend a shutter cycle to confirm.
		d.confirming = true
		d.shutter.Reset()
	}

	dir, v := d.shutter.Step(ownMisses, neighborMisses)
	if v != VerdictPending {
		d.confirming = false
	}
	return dir, v
}

// Reset implements Detector.
func (d *HybridDetector) Reset() {
	d.confirming = false
	d.shutter.Reset()
	d.rule.Reset()
}
