package caer

import (
	"caer/internal/comm"
	"caer/internal/stats"
)

// ShutterDetector implements the Burst-Shutter heuristic (paper §4.1,
// Algorithm 1). It actively probes for contention by modulating the batch
// application itself:
//
//  1. Shutter: halt the batch for switchPoint periods and record the
//     neighbour's last-level-cache misses — the steady average.
//  2. Burst: run the batch at full force until endPoint and record the
//     neighbour's misses — the burst average.
//  3. If the burst average exceeds the steady average by more than
//     noiseThresh *and* by more than ImpactFactor relatively, the batch's
//     execution is demonstrably raising the neighbour's miss rate: assert
//     contention.
//
// The ImpactFactor is the paper's QoS "knob": it directly expresses how
// much cross-core interference the latency-sensitive application will
// tolerate.
type ShutterDetector struct {
	impactFactor float64

	count   int
	rWindow *stats.Window // neighbour samples for the current cycle
}

// NewShutterDetector constructs the heuristic from cfg. It panics on an
// invalid configuration.
func NewShutterDetector(cfg Config) *ShutterDetector {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &ShutterDetector{
		impactFactor: cfg.ImpactFactor,
		rWindow:      stats.NewWindow(endPoint),
	}
}

// Step implements Detector, advancing Algorithm 1 by one period.
func (d *ShutterDetector) Step(ownMisses, neighborMisses float64) (comm.Directive, Verdict) {
	d.rWindow.Push(neighborMisses)
	d.count++

	if d.count < switchPoint {
		// Still measuring the steady average: keep the shutter closed.
		return comm.DirectivePause, VerdictPending
	}
	if d.count < endPoint {
		// Burst: run the batch at full force.
		return comm.DirectiveRun, VerdictPending
	}

	// count == endPoint: compute both averages over this cycle's samples
	// (positions are relative to the cycle because the window length equals
	// endPoint and Reset clears it). Directives take effect one period after
	// they are issued, so the sample at position 0 ran under the pre-cycle
	// directive and belongs to neither average: the shutter (batch paused)
	// covers positions [1, switchPoint) and the burst [switchPoint,
	// endPoint). Each span additionally skips its first transientSkip
	// periods, because the shared cache takes several periods to refill
	// (shutter) or drain (burst) after the batch's state flips — the
	// averages are taken over the settled tails.
	steady := d.rWindow.MeanRange(1+transientSkip, switchPoint)
	burst := d.rWindow.MeanRange(switchPoint+transientSkip, endPoint)
	d.resetCycle()

	if (burst-steady) > noiseThresh && burst > steady*(1+d.impactFactor) {
		return comm.DirectiveRun, VerdictContention
	}
	return comm.DirectiveRun, VerdictNoContention
}

// Reset implements Detector.
func (d *ShutterDetector) Reset() { d.resetCycle() }

func (d *ShutterDetector) resetCycle() {
	d.count = 0
	d.rWindow.Reset()
}
