package sched

import (
	"caer/internal/stats"
	"caer/internal/telemetry"
)

// classifierWindow is the sliding-window length (in sampling periods) over
// which per-app miss and reuse rates are averaged before scoring.
const classifierWindow = 32

// appProfile is one application's online contention profile.
type appProfile struct {
	// misses / reuses hold the last classifierWindow per-period samples:
	// LLC misses (pressure the app puts on its domain) and LLC hits (reuse
	// the app extracts from the shared cache, i.e. what it stands to lose
	// to an aggressor).
	misses *stats.Window
	reuses *stats.Window

	// Hysteresis state for the binary LFOC-style classes. A class bit only
	// flips after `hysteresis` consecutive periods beyond the watermark,
	// so one noisy period cannot flap a placement decision.
	aggressor      bool
	sensitive      bool
	aggrHi, aggrLo int
	sensHi, sensLo int
}

// Classifier maintains per-application contention profiles from windowed
// LLC-miss/LLC-hit samples (LFOC-style online classification): an app's
// *aggressiveness* is its normalized miss pressure — what it inflicts on a
// shared cache — and its *sensitivity* is its normalized LLC reuse — what a
// co-located aggressor can take from it.
// Both scores are in [0, 1) with 0.5 at PressureScale events/period, and
// the binary Aggressor/Sensitive classes carry hysteresis.
//
// The per-period Observe path is allocation-free (fixed windows); apps are
// registered once, before observation starts.
type Classifier struct {
	scale      float64
	hysteresis int
	apps       []appProfile
}

// Hysteresis watermarks: the binary class arms above the high watermark and
// disarms below the low watermark (score space, [0,1)).
const (
	classOnScore  = 0.55
	classOffScore = 0.45
)

// NewClassifier builds a classifier. scale is the events/period count that
// maps to a score of 0.5 (the knee of the normalization); hysteresis is the
// consecutive-period streak required to flip a binary class.
func NewClassifier(scale float64, hysteresis int) *Classifier {
	if scale <= 0 {
		panic("sched: classifier scale must be positive")
	}
	if hysteresis < 1 {
		panic("sched: classifier hysteresis must be at least 1")
	}
	return &Classifier{scale: scale, hysteresis: hysteresis}
}

// AddApp registers an application profile and returns its id. Repeated
// jobs of the same program should share an id so later instances inherit
// the learned profile; the scheduler keeps that mapping by name.
// Registration allocates and must complete before observation.
func (c *Classifier) AddApp() int {
	c.apps = append(c.apps, appProfile{
		misses: stats.NewWindow(classifierWindow),
		reuses: stats.NewWindow(classifierWindow),
	})
	return len(c.apps) - 1
}

// Observe records one sampling period for app: its LLC misses and LLC hits
// (reuse) during the period. It runs every period for every placed app and
// is allocation-free.
func (c *Classifier) Observe(app int, misses, hits float64) {
	p := &c.apps[app]
	if hits < 0 {
		hits = 0
	}
	p.misses.Push(misses)
	p.reuses.Push(hits)

	aggr := c.normalize(p.misses.Mean())
	if aggr >= classOnScore {
		p.aggrHi++
		p.aggrLo = 0
		if p.aggrHi >= c.hysteresis {
			if !p.aggressor {
				telemetry.SchedFlipsAggressor.Inc()
			}
			p.aggressor = true
		}
	} else if aggr <= classOffScore {
		p.aggrLo++
		p.aggrHi = 0
		if p.aggrLo >= c.hysteresis {
			if p.aggressor {
				telemetry.SchedFlipsAggressor.Inc()
			}
			p.aggressor = false
		}
	} else {
		p.aggrHi = 0
		p.aggrLo = 0
	}

	sens := c.normalize(p.reuses.Mean())
	if sens >= classOnScore {
		p.sensHi++
		p.sensLo = 0
		if p.sensHi >= c.hysteresis {
			if !p.sensitive {
				telemetry.SchedFlipsSensitive.Inc()
			}
			p.sensitive = true
		}
	} else if sens <= classOffScore {
		p.sensLo++
		p.sensHi = 0
		if p.sensLo >= c.hysteresis {
			if p.sensitive {
				telemetry.SchedFlipsSensitive.Inc()
			}
			p.sensitive = false
		}
	} else {
		p.sensHi = 0
		p.sensLo = 0
	}
}

// normalize maps an events/period rate into [0, 1): scale events/period
// scores 0.5 and the score saturates smoothly above it.
func (c *Classifier) normalize(rate float64) float64 {
	return rate / (rate + c.scale)
}

// Aggressiveness returns app's current aggressiveness score in [0, 1): its
// windowed LLC-miss pressure, normalized. Unobserved apps score 0
// (optimistic: an unknown job is placed by domain pressure alone until its
// first samples arrive). Allocation-free.
func (c *Classifier) Aggressiveness(app int) float64 {
	return c.normalize(c.apps[app].misses.Mean())
}

// Sensitivity returns app's current sensitivity score in [0, 1): its
// windowed LLC reuse, normalized — how much shared-cache benefit an
// aggressor can destroy. Allocation-free.
func (c *Classifier) Sensitivity(app int) float64 {
	return c.normalize(c.apps[app].reuses.Mean())
}

// Aggressor reports the hysteresis-filtered binary aggressor class.
func (c *Classifier) Aggressor(app int) bool { return c.apps[app].aggressor }

// Sensitive reports the hysteresis-filtered binary sensitive class.
func (c *Classifier) Sensitive(app int) bool { return c.apps[app].sensitive }
