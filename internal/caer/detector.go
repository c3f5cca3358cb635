package caer

import (
	"fmt"

	"caer/internal/comm"
)

// Verdict is the outcome of one detection step.
type Verdict int

const (
	// VerdictPending means the heuristic is still gathering evidence
	// (e.g. mid shutter/burst cycle).
	VerdictPending Verdict = iota
	// VerdictContention asserts the applications are contending
	// (c-positive in Figure 5).
	VerdictContention
	// VerdictNoContention asserts the absence of contention (c-negative).
	VerdictNoContention
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictPending:
		return "pending"
	case VerdictContention:
		return "contention"
	case VerdictNoContention:
		return "no-contention"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Detector is an online contention-detection heuristic (paper §4). The
// engine feeds it one sample pair per sampling period: the batch
// application's own LLC misses and the latency-sensitive neighbour's.
//
// Step returns the batch directive the heuristic needs for its *own*
// measurement protocol during the coming period (the burst-shutter halts
// the batch while measuring the steady average) and the verdict, which
// stays VerdictPending until a detection cycle completes.
type Detector interface {
	Step(ownMisses, neighborMisses float64) (comm.Directive, Verdict)
	// Reset discards any in-progress detection cycle (called when a
	// response phase ends, restarting detection cleanly).
	Reset()
}
