// Package caer implements the paper's contribution: the Contention Aware
// Execution Runtime. It contains the CAER-M monitor layer (under
// latency-sensitive applications), the CAER engine (under batch
// applications), the two online contention-detection heuristics of §4
// (Burst-Shutter, Algorithm 1; Rule-Based, Algorithm 2) plus the random
// baseline of §6.4, and the contention responses of §5
// (red-light/green-light — fixed and adaptive — and soft locking), wired
// together by the detect/respond state machine of Figure 5.
//
// All PMU access goes through internal/pmu and all cross-layer
// communication through internal/comm, so the runtime is backend-agnostic:
// the same code drives the simulated machine and could drive real hardware
// counters.
package caer

import "fmt"

// Config collects the CAER runtime's settings that callers vary. The
// defaults are the paper's settings (§6.2) translated to the scaled machine
// model: the paper's usage threshold of 1500 LLC misses per 1 ms period on
// an 8 MB L3 scales to 150 misses per 60,000-cycle period on the 512 KB L3
// (the same order of misses-per-cache-line-per-period density). Algorithm
// 1's spans, its noise floor, the adaptive hold ceiling and the random
// baseline are fixed design values: the constants below.
type Config struct {
	// WindowSize is the communication-table sample window length in
	// periods (the l_window/r_window size of Algorithms 1 and 2).
	WindowSize int

	// ImpactFactor is the relative spike ("5%" in the paper) Algorithm 1's
	// burst average must exceed the steady average by to assert
	// contention.
	ImpactFactor float64

	// Rule-based (Algorithm 2) parameter: both applications' window
	// averages must reach UsageThresh misses/period to assert contention.
	UsageThresh float64

	// ResponseLength is the red-light/green-light hold length in periods
	// (10 in the paper's evaluation).
	ResponseLength int
	// AdaptiveResponse enables the §5 extension: the hold length grows
	// while detections keep producing the same verdict, up to
	// maxResponseLength.
	AdaptiveResponse bool

	// WatchdogPeriods is the engine watchdog horizon: after this many
	// consecutive periods in which some neighbour slot received no fresh
	// sample, the engine enters the degraded fail-open state (emit
	// DirectiveRun, stop trusting the frozen windows) until samples
	// resume. 0 disables the watchdog — an engine driven outside a
	// Runtime, whose table period never advances, is never degraded.
	WatchdogPeriods int

	// Sampling selects how the runtime schedules the detection pipeline
	// (DESIGN.md §13). The zero value is the paper's every-period polling,
	// so existing configurations are unchanged; MaxProbeInterval is
	// ignored (and not validated) under polling.
	Sampling SamplingMode
	// MaxProbeInterval is the adaptive controller's interval ceiling and
	// the interrupt mode's keepalive cadence, in periods. It should stay
	// well below WatchdogPeriods — skipped probes declare their cadence to
	// the comm table, but the keepalive is also what bounds how long a
	// dead monitor can hide behind the sleep.
	MaxProbeInterval int
}

// Algorithm 1's shape. The shutter halts the batch for switchPoint periods
// to measure the neighbour's steady LLC-miss average; periods [switchPoint,
// endPoint) run the batch at full force for the burst average. The spans
// are stretched so the shutter outlasts the shared cache's refill transient
// — on this machine, as on the paper's, the neighbour needs a few periods of
// solitude before its miss rate reflects the batch's absence — and each
// span's first transientSkip periods are left out of its average, so both
// averages are taken over the settled tail. TestShutterShape pins
// transientSkip+1 < switchPoint and switchPoint+transientSkip < endPoint.
// noiseThresh is the absolute miss-count floor the spike must also clear,
// filtering measurement noise on quiet neighbours; the interrupt trigger and
// the adaptive quiet test share it.
const (
	switchPoint   = 10
	endPoint      = 20
	transientSkip = 5
	noiseThresh   = 20
)

// maxResponseLength caps the adaptive red-light/green-light hold and the
// soft lock's hold (its safety valve), in periods.
const maxResponseLength = 80

// The random baseline of §6.4: contention with probability randomP, drawn
// from a generator seeded with randomSeed.
const (
	randomP    = 0.5
	randomSeed = 1
)

// The rest of the probe schedule is fixed (the sampling suite sweeps only
// MaxProbeInterval): the adaptive interval widens sampleGrowth-fold, and the
// interrupt mode goes to sleep, only after quietProbes consecutive quiet
// probes; the interrupt trigger fires on a neighbour LLC-miss sum of
// noiseThresh * triggerWindow over triggerWindow periods, the noise floor
// the adaptive mode compares against taken over that window.
const (
	sampleGrowth  = 2
	quietProbes   = 3
	triggerWindow = 4
)

// DefaultConfig returns the paper's configuration scaled to the simulated
// machine.
func DefaultConfig() Config {
	return Config{
		WindowSize:       10,
		ImpactFactor:     0.05,
		UsageThresh:      150,
		ResponseLength:   10,
		AdaptiveResponse: false,
		WatchdogPeriods:  30,
		Sampling:         SamplingPolling,
		MaxProbeInterval: 16,
	}
}

// Validate reports the first configuration error, or nil.
func (c Config) Validate() error {
	switch {
	case c.WindowSize <= 0:
		return fmt.Errorf("caer: WindowSize %d must be positive", c.WindowSize)
	case c.ImpactFactor < 0:
		return fmt.Errorf("caer: ImpactFactor %v must be non-negative", c.ImpactFactor)
	case c.UsageThresh < 0:
		return fmt.Errorf("caer: UsageThresh %v must be non-negative", c.UsageThresh)
	case c.ResponseLength <= 0:
		return fmt.Errorf("caer: ResponseLength %d must be positive", c.ResponseLength)
	case c.AdaptiveResponse && c.ResponseLength > maxResponseLength:
		return fmt.Errorf("caer: ResponseLength %d exceeds the adaptive ceiling %d", c.ResponseLength, maxResponseLength)
	case c.WatchdogPeriods < 0:
		return fmt.Errorf("caer: WatchdogPeriods %d must be non-negative (0 disables)", c.WatchdogPeriods)
	}
	switch c.Sampling {
	case SamplingPolling:
		// MaxProbeInterval is inert under polling; leave it unvalidated so
		// legacy literal configs stay valid.
	case SamplingAdaptive, SamplingInterrupt:
		switch {
		case c.MaxProbeInterval < 1:
			return fmt.Errorf("caer: MaxProbeInterval %d must be >= 1 under %s sampling", c.MaxProbeInterval, c.Sampling)
		case c.WatchdogPeriods > 0 && c.MaxProbeInterval >= c.WatchdogPeriods:
			return fmt.Errorf("caer: MaxProbeInterval %d must stay below WatchdogPeriods %d (the keepalive must outpace the watchdog)", c.MaxProbeInterval, c.WatchdogPeriods)
		}
	default:
		return fmt.Errorf("caer: unknown sampling mode %d", int(c.Sampling))
	}
	return nil
}
