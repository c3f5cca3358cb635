package caer

import "fmt"

// SamplingMode selects how the runtime schedules its per-period detection
// pipeline (probe, publish, detect, respond). The paper's prototype polls
// every period unconditionally; the two additional modes reproduce the
// related work's event-driven detection (mc-linux: interrupt-style
// detection is 2-13x faster than polling at equal overhead, and the
// sampling-interval sweep has a sharp optimum).
type SamplingMode int

const (
	// SamplingPolling is the paper's §3.2 behaviour: the full pipeline
	// runs every sampling period. Zero value, so existing configurations
	// are unchanged.
	SamplingPolling SamplingMode = iota
	// SamplingAdaptive widens the probe interval multiplicatively while
	// pressure stays below the noise threshold and snaps back to
	// every-period on onset, with hysteresis mirroring the shutter: the
	// interval only grows after quietProbes consecutive quiet probes.
	SamplingAdaptive
	// SamplingInterrupt arms a pmu.Threshold trigger on each
	// latency-sensitive core and skips the pipeline entirely while it
	// sleeps: the trigger's per-period Check is the only counter touch,
	// and a fire (or a keepalive probe every MaxProbeInterval periods)
	// wakes the full pipeline.
	SamplingInterrupt
)

// String names the sampling mode.
func (m SamplingMode) String() string {
	switch m {
	case SamplingPolling:
		return "polling"
	case SamplingAdaptive:
		return "adaptive"
	case SamplingInterrupt:
		return "interrupt"
	default:
		return fmt.Sprintf("SamplingMode(%d)", int(m))
	}
}

// IntervalController is the adaptive-sampling state machine: it holds the
// current probe interval in periods, widening it multiplicatively while
// observations stay quiet and snapping back to every-period on onset.
// Hysteresis mirrors the shutter detector's settle discipline — the
// interval grows only after quietProbes consecutive quiet probes, so one
// quiet period after a noisy stretch cannot halve the detection latency
// budget. All methods are allocation-free; Observe runs on the probe path.
type IntervalController struct {
	max         int
	growth      int
	quietProbes int

	interval int
	streak   int
}

// NewIntervalController builds a controller starting at every-period
// probing. It panics on out-of-range parameters (deployment wiring errors
// should be loud): max >= 1, growth >= 2, quietProbes >= 1.
func NewIntervalController(max, growth, quietProbes int) *IntervalController {
	if max < 1 {
		panic(fmt.Sprintf("caer: interval controller max %d must be >= 1", max))
	}
	if growth < 2 {
		panic(fmt.Sprintf("caer: interval controller growth %d must be >= 2", growth))
	}
	if quietProbes < 1 {
		panic(fmt.Sprintf("caer: interval controller hysteresis %d must be >= 1", quietProbes))
	}
	return &IntervalController{max: max, growth: growth, quietProbes: quietProbes, interval: 1}
}

// Observe folds one probe outcome into the controller and returns the
// interval to wait before the next probe: onset (quiet=false) snaps the
// interval back to 1 immediately; a quiet probe extends the quiet streak,
// and once the streak reaches the hysteresis bound the interval widens by
// the growth factor, capped at max.
func (c *IntervalController) Observe(quiet bool) int {
	if !quiet {
		c.interval = 1
		c.streak = 0
		return 1
	}
	c.streak++
	if c.streak >= c.quietProbes && c.interval < c.max {
		c.streak = 0
		c.interval *= c.growth
		if c.interval > c.max {
			c.interval = c.max
		}
	}
	return c.interval
}

// Reset snaps the controller back to every-period probing (onset response
// outside the Observe path, e.g. a runtime restart).
func (c *IntervalController) Reset() {
	c.interval = 1
	c.streak = 0
}

// SamplingStats summarises one runtime's sampling-schedule behaviour —
// the probe-cost side of the detection-latency-vs-overhead tradeoff the
// SamplingSuite sweeps.
type SamplingStats struct {
	Mode           SamplingMode
	ProbePeriods   uint64 // periods the full pipeline ran
	SkippedPeriods uint64 // periods the pipeline was deliberately skipped
	Keepalives     uint64 // interrupt-mode keepalive probes (subset of ProbePeriods)
	TriggerFires   uint64 // interrupt-mode threshold fires
	WidestInterval int    // widest probe interval reached (1 for polling)
}
