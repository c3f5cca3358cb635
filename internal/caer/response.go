package caer

import (
	"fmt"

	"caer/internal/comm"
)

// View is the responder's read-only window into the engine's current
// evidence, used by responses whose release condition depends on live
// cache pressure (soft locking).
type View interface {
	// OwnMean is the batch application's windowed LLC-miss average.
	OwnMean() float64
	// NeighborMean is the latency-sensitive application's windowed
	// LLC-miss average.
	NeighborMean() float64
	// LastNeighbor is the neighbour's most recent per-period miss count.
	LastNeighbor() float64
}

// Responder turns detection verdicts into batch-throttling behaviour
// (paper §5). After each fresh verdict the engine calls React, then holds
// the returned directive, consulting Hold each period; the hold ends when
// its length expires or Hold releases early.
type Responder interface {
	Name() string
	// React maps a verdict to a directive and a hold length in periods
	// (>= 1).
	React(contending bool, v View) (comm.Directive, int)
	// Hold is consulted once per period while holding; returning
	// release=true ends the hold immediately (before the length expires)
	// and resumes detection.
	Hold(v View) (d comm.Directive, release bool)
	// Reset clears adaptive state.
	Reset()
}

// RedLightGreenLight is the paper's first response: stop (red) or allow
// (green) execution for a fixed number of periods according to the verdict.
// With Adaptive set, the hold length doubles while detections keep
// producing the same verdict and snaps back when the verdict flips —
// the paper's "increasing the length if the detection phase is
// consistently producing the same result".
type RedLightGreenLight struct {
	length   int
	adaptive bool
	name     string

	lastVerdict   bool
	haveVerdict   bool
	currentLength int
	current       comm.Directive
}

// NewRedLightGreenLight builds the response from cfg (ResponseLength,
// AdaptiveResponse; adaptive holds grow up to maxResponseLength). It panics
// on invalid configuration.
func NewRedLightGreenLight(cfg Config) *RedLightGreenLight {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	name := "red-light-green-light(adaptive)"
	if !cfg.AdaptiveResponse {
		name = fmt.Sprintf("red-light-green-light(%d)", cfg.ResponseLength)
	}
	return &RedLightGreenLight{
		length:        cfg.ResponseLength,
		adaptive:      cfg.AdaptiveResponse,
		currentLength: cfg.ResponseLength,
		name:          name,
	}
}

// Name implements Responder. The name is formatted once at construction so
// that calling it from period-loop code stays allocation-free.
func (r *RedLightGreenLight) Name() string { return r.name }

// React implements Responder.
func (r *RedLightGreenLight) React(contending bool, v View) (comm.Directive, int) {
	if r.adaptive {
		if r.haveVerdict && contending == r.lastVerdict {
			r.currentLength = min(2*r.currentLength, maxResponseLength)
		} else {
			r.currentLength = r.length
		}
	}
	r.lastVerdict, r.haveVerdict = contending, true
	if contending {
		r.current = comm.DirectivePause
		return comm.DirectivePause, r.currentLength
	}
	r.current = comm.DirectiveRun
	return comm.DirectiveRun, r.currentLength
}

// Hold implements Responder: the light stays its colour for the whole
// hold.
func (r *RedLightGreenLight) Hold(v View) (comm.Directive, bool) {
	return r.current, false
}

// Reset implements Responder.
func (r *RedLightGreenLight) Reset() {
	r.haveVerdict = false
	r.currentLength = r.length
	r.current = comm.DirectiveRun
}

// SoftLock is the paper's second response, paired with the rule-based
// heuristic: on a c-positive verdict the batch takes a soft lock pause on
// the shared cache and stays paused until the latency-sensitive
// application's pressure — the same PMU signal used for detection — drops
// below the usage threshold; then the batch fully resumes.
type SoftLock struct {
	usageThresh float64
}

// NewSoftLock builds the response from cfg (UsageThresh; the hold is
// re-evaluated every period and bounded by maxResponseLength as a
// safety valve). It panics on invalid configuration.
func NewSoftLock(cfg Config) *SoftLock {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	return &SoftLock{usageThresh: cfg.UsageThresh}
}

// Name implements Responder.
func (s *SoftLock) Name() string { return "soft-lock" }

// React implements Responder: a c-positive verdict takes the lock for up
// to maxResponseLength periods (Hold releases it as soon as pressure
// subsides); a c-negative verdict lets the batch run and immediately
// resumes detection.
func (s *SoftLock) React(contending bool, v View) (comm.Directive, int) {
	if !contending {
		return comm.DirectiveRun, 1
	}
	return comm.DirectivePause, maxResponseLength
}

// Hold implements Responder: release the lock when the neighbour's cache
// pressure subsides below the usage threshold.
func (s *SoftLock) Hold(v View) (comm.Directive, bool) {
	if v.NeighborMean() < s.usageThresh {
		return comm.DirectiveRun, true
	}
	return comm.DirectivePause, false
}

// Reset implements Responder (stateless between verdicts).
func (s *SoftLock) Reset() {}
