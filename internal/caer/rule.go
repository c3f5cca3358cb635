package caer

import (
	"caer/internal/comm"
	"caer/internal/stats"
)

// RuleDetector implements the Rule-Based heuristic (paper §4.2,
// Algorithm 2), a direct test of the paper's hypothesis: two applications
// are contending iff both are missing heavily in the shared last-level
// cache. It keeps running windowed averages of both applications' LLC
// misses and asserts contention only when *both* averages reach the usage
// threshold; if either application is quiet in the cache it cannot be
// suffering from — or causing — cache contention.
//
// Unlike the burst-shutter, this heuristic is passive: it never perturbs
// the batch application to measure, so its Step directive is always Run.
type RuleDetector struct {
	usageThresh float64
	lWindow     *stats.Window // own (batch) misses
	rWindow     *stats.Window // neighbour (latency-sensitive) misses
}

// NewRuleDetector constructs the heuristic from cfg. It panics on an
// invalid configuration.
func NewRuleDetector(cfg Config) *RuleDetector {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &RuleDetector{
		usageThresh: cfg.UsageThresh,
		lWindow:     stats.NewWindow(cfg.WindowSize),
		rWindow:     stats.NewWindow(cfg.WindowSize),
	}
}

// Step implements Detector: one pass of Algorithm 2's loop body. A verdict
// is produced every period — the heuristic needs no multi-period protocol.
func (d *RuleDetector) Step(ownMisses, neighborMisses float64) (comm.Directive, Verdict) {
	d.lWindow.Push(ownMisses)
	d.rWindow.Push(neighborMisses)

	contending := true
	if d.lWindow.Mean() < d.usageThresh {
		contending = false
	}
	if d.rWindow.Mean() < d.usageThresh {
		contending = false
	}
	if contending {
		return comm.DirectiveRun, VerdictContention
	}
	return comm.DirectiveRun, VerdictNoContention
}

// Reset implements Detector. The windows deliberately survive a reset: the
// running averages of Algorithm 2 are meant to be continuous across
// response phases (only the in-flight verdict state is conceptually
// discarded, and RuleDetector keeps none).
func (d *RuleDetector) Reset() {}
