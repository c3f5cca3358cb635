package caer

import (
	"fmt"

	"caer/internal/comm"
	"caer/internal/telemetry"
)

// engineState is the Figure 5 state machine position.
type engineState int

const (
	stateDetecting engineState = iota
	stateHolding
	// stateDegraded is the fail-open extension of the Figure 5 machine:
	// the neighbour samples went stale past the watchdog horizon, so the
	// engine emits DirectiveRun and suspends detection until they resume.
	stateDegraded
)

// EngineStats summarises an engine's decision history — the paper's
// prototype "logs the decisions it makes".
type EngineStats struct {
	Periods        uint64 // Tick calls
	PausedPeriods  uint64 // periods the batch was directed to pause
	RunPeriods     uint64 // periods the batch was directed to run
	CPositive      uint64 // contention verdicts
	CNegative      uint64 // no-contention verdicts
	DetectionTicks uint64 // periods spent inside detection protocols
	HoldTicks      uint64 // periods spent inside response holds
	DegradedTicks  uint64 // periods spent in the fail-open degraded state
	WatchdogTrips  uint64 // times the watchdog forced degradation
}

// Add folds o into s: the totals over every engine an application ran
// under (it gets a fresh engine whenever it is re-attached).
func (s *EngineStats) Add(o EngineStats) {
	s.Periods += o.Periods
	s.PausedPeriods += o.PausedPeriods
	s.RunPeriods += o.RunPeriods
	s.CPositive += o.CPositive
	s.CNegative += o.CNegative
	s.DetectionTicks += o.DetectionTicks
	s.HoldTicks += o.HoldTicks
	s.DegradedTicks += o.DegradedTicks
	s.WatchdogTrips += o.WatchdogTrips
}

// Engine is the main CAER layer that lies under a batch application
// (paper §3.2): each period it publishes the batch's own LLC-miss sample to
// the communication table, reads the latency-sensitive neighbours' samples
// back, advances the detect/respond state machine of Figure 5, and emits
// the throttling directive for the coming period.
type Engine struct {
	det  Detector
	resp Responder

	ownSlot       *comm.Slot
	neighborSlots []*comm.Slot

	state        engineState
	holdLeft     int
	directive    comm.Directive
	stats        EngineStats
	loggedDir    comm.Directive
	everDirected bool
	// watchdog is the staleness horizon in periods (0 = disabled): once
	// the most-stale neighbour slot has gone watchdog periods without a
	// fresh sample, the engine degrades to fail-open.
	watchdog int

	// Span bookkeeping: the engine's lane is its decision log (one detect
	// span per verdict, one shutter/hold/degraded span per closed phase).
	// The lane is its own slot ID (re-homed by Pipeline.SetLanes for fleet
	// runs, where N machines share a ring and raw slot ids would collide),
	// and each in-flight detection protocol / hold / degraded stretch
	// remembers its start period so the closing tick can record a single
	// span covering the whole phase.
	spans         *telemetry.SpanRecorder
	laneName      string
	track         int32
	detActive     bool
	detStart      uint64
	shutterActive bool
	shutterStart  uint64
	holdDir       comm.Directive
	holdStart     uint64
	degradedStart uint64
}

// NewEngine wires a detector and responder to the batch application's own
// table slot and the latency-sensitive neighbours' slots. It panics if any
// slot is missing or mis-classified, which would mean the deployment is
// wired wrongly.
func NewEngine(det Detector, resp Responder, own *comm.Slot, neighbors []*comm.Slot) *Engine {
	if det == nil || resp == nil {
		panic("caer: engine needs a detector and a responder")
	}
	if own == nil || own.Role() != comm.RoleBatch {
		panic("caer: engine's own slot must be a batch slot")
	}
	if len(neighbors) == 0 {
		panic("caer: engine needs at least one latency-sensitive neighbour")
	}
	for _, n := range neighbors {
		if n == nil || n.Role() != comm.RoleLatency {
			panic(fmt.Sprintf("caer: neighbour slot %v is not latency-sensitive", n))
		}
	}
	ns := make([]*comm.Slot, len(neighbors))
	copy(ns, neighbors)
	e := &Engine{det: det, resp: resp, ownSlot: own, neighborSlots: ns,
		track: int32(own.ID()), spans: telemetry.DefaultSpans, laneName: "batch/" + own.Name()}
	e.spans.NameTrack(e.track, e.laneName)
	return e
}

// SetWatchdog arms the engine's staleness watchdog: after periods
// consecutive sampling periods in which some neighbour slot received no
// fresh sample (its publisher — a CAER-M monitor — is dead or wedged), the
// engine enters the degraded fail-open state, emitting DirectiveRun
// instead of trusting frozen windows, and recovers once every neighbour
// publishes again. periods <= 0 disables the watchdog. It must be called
// before the first Tick; reconfiguring a running engine would make its
// stats and spans unaccountable.
func (e *Engine) SetWatchdog(periods int) {
	if e.stats.Periods > 0 {
		panic("caer: SetWatchdog after the first Tick")
	}
	e.watchdog = periods
}

// Degraded reports whether the engine is currently failing open because
// its neighbour samples are stale.
func (e *Engine) Degraded() bool { return e.state == stateDegraded }

// Idle reports whether the engine is at a detection rest point: not
// holding, not degraded, and no multi-period detection protocol in flight.
// The sampling controllers only widen the probe interval (or go to sleep)
// when every engine is idle — stretching a shutter measurement or a
// response hold across skipped periods would corrupt its period accounting.
func (e *Engine) Idle() bool { return e.state == stateDetecting && !e.detActive }

// maxNeighborStale returns the staleness, in table periods, of the
// longest-silent neighbour slot.
func (e *Engine) maxNeighborStale() uint64 {
	var m uint64
	for _, n := range e.neighborSlots {
		if s := n.StalePeriods(); s > m {
			m = s
		}
	}
	return m
}

// Stats returns a copy of the decision counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// Directive returns the most recently issued directive.
func (e *Engine) Directive() comm.Directive { return e.directive }

// OwnMean implements View over the batch slot's window.
func (e *Engine) OwnMean() float64 { return e.ownSlot.WindowMean() }

// NeighborMean implements View: the aggregate (summed) windowed pressure of
// every latency-sensitive neighbour.
func (e *Engine) NeighborMean() float64 {
	var s float64
	for _, n := range e.neighborSlots {
		s += n.WindowMean()
	}
	return s
}

// LastNeighbor implements View: the neighbours' aggregate misses in the
// most recent period.
func (e *Engine) LastNeighbor() float64 {
	var s float64
	for _, n := range e.neighborSlots {
		s += n.LastSample()
	}
	return s
}

// Tick advances the engine by one sampling period. ownMisses is the batch
// application's LLC misses during the period just completed (read from its
// PMU); the neighbours' samples are taken from the communication table,
// where their CAER-M monitors have already published them. Tick returns
// the directive for the coming period.
func (e *Engine) Tick(ownMisses float64) comm.Directive {
	telemetry.EngineTicks.Inc()
	e.ownSlot.Publish(ownMisses)
	neighbor := e.LastNeighbor()
	e.stats.Periods++
	period := e.stats.Periods - 1
	e.spans.Record(e.track, telemetry.SpanPublish, period, 1, ownMisses)

	// Watchdog: a dead neighbour publisher freezes its window, and a
	// frozen-high window would wedge the batch in DirectivePause forever
	// (the soft lock waits for pressure that can never subside). Checked
	// before the hold branch so degradation bounds in-flight pauses too.
	if e.watchdog > 0 {
		stale := e.maxNeighborStale()
		telemetry.CommStaleness.Observe(float64(stale))
		if e.state == stateDegraded {
			if stale == 0 {
				// Every neighbour published this period: recover.
				e.state = stateDetecting
				e.holdLeft = 0
				e.det.Reset()
				e.resp.Reset()
				e.spans.Record(e.track, telemetry.SpanDegraded,
					e.degradedStart, uint32(period-e.degradedStart), 0)
			} else {
				e.stats.DegradedTicks++
				telemetry.EngineDegradedTicks.Inc()
				e.directive = comm.DirectiveRun
				e.finishTick()
				return e.directive
			}
		} else if stale >= uint64(e.watchdog) {
			// The trip truncates any phase in flight; the hold that was
			// cancelled still gets its (shortened) span.
			if e.state == stateHolding {
				e.recordHoldSpan(period)
			}
			e.detActive = false
			e.shutterActive = false
			e.state = stateDegraded
			e.holdLeft = 0
			e.stats.WatchdogTrips++
			e.stats.DegradedTicks++
			telemetry.EngineWatchdogTrips.Inc()
			telemetry.EngineDegradedTicks.Inc()
			e.degradedStart = period
			e.directive = comm.DirectiveRun
			e.finishTick()
			return e.directive
		}
	}

	if e.state == stateHolding {
		d, release := e.resp.Hold(e)
		e.holdLeft--
		e.stats.HoldTicks++
		e.directive = d
		if release || e.holdLeft <= 0 {
			e.state = stateDetecting
			e.det.Reset()
			e.recordHoldSpan(period + 1)
		}
		e.finishTick()
		return e.directive
	}

	e.stats.DetectionTicks++
	if !e.detActive {
		e.detActive = true
		e.detStart = period
	}
	d, v := e.det.Step(ownMisses, neighbor)
	if v == VerdictPending {
		// A pausing pending directive is the shutter's closed phase: the
		// batch is halted so the detector can read the neighbour's steady
		// miss rate (Algorithm 1).
		if d == comm.DirectivePause {
			if !e.shutterActive {
				e.shutterActive = true
				e.shutterStart = period
			}
		} else {
			e.recordShutterSpan(period)
		}
		e.directive = d
		e.finishTick()
		return e.directive
	}

	contending := v == VerdictContention
	verdictVal := 0.0
	if contending {
		e.stats.CPositive++
		telemetry.EngineVerdictContention.Inc()
		verdictVal = 1
	} else {
		e.stats.CNegative++
		telemetry.EngineVerdictClear.Inc()
	}
	e.recordShutterSpan(period)
	e.spans.Record(e.track, telemetry.SpanDetect,
		e.detStart, uint32(period-e.detStart+1), verdictVal)
	e.detActive = false
	dir, n := e.resp.React(contending, e)
	if n < 1 {
		panic(fmt.Sprintf("caer: responder %s returned hold length %d", e.resp.Name(), n))
	}
	e.det.Reset()
	e.directive = dir
	if n > 1 {
		e.state = stateHolding
		e.holdLeft = n - 1
		e.holdStart = period
		e.holdDir = dir
		telemetry.EngineHolds.Inc()
	}
	e.finishTick()
	return e.directive
}

// recordHoldSpan closes the in-flight hold span at end (exclusive).
func (e *Engine) recordHoldSpan(end uint64) {
	val := 0.0
	if e.holdDir == comm.DirectivePause {
		val = 1
	}
	n := end - e.holdStart
	if n == 0 {
		n = 1
	}
	e.spans.Record(e.track, telemetry.SpanHold, e.holdStart, uint32(n), val)
	telemetry.EngineHoldPeriods.Observe(float64(n))
}

// recordShutterSpan closes the in-flight shutter-closed span, if any, at
// end (exclusive).
func (e *Engine) recordShutterSpan(end uint64) {
	if !e.shutterActive {
		return
	}
	e.shutterActive = false
	n := end - e.shutterStart
	if n == 0 {
		n = 1
	}
	e.spans.Record(e.track, telemetry.SpanShutter, e.shutterStart, uint32(n), 0)
}

func (e *Engine) finishTick() {
	if e.directive == comm.DirectivePause {
		e.stats.PausedPeriods++
		telemetry.EnginePausedPeriods.Inc()
	} else {
		e.stats.RunPeriods++
	}
	if !e.everDirected || e.directive != e.loggedDir {
		telemetry.EngineDirectiveChanges.Inc()
		e.loggedDir = e.directive
		e.everDirected = true
	}
}
