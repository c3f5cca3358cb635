package slo

import "caer/internal/telemetry"

// Transition is one alert state change during a replay.
type Transition struct {
	Period uint64 // sample index (exclusive end of the evaluated window)
	From   AlertState
	To     AlertState
	// Burn rates at the transition period.
	Fast, Slow float64
}

// Episode is one contiguous firing stretch.
type Episode struct {
	// Start is the first burning sample index; End the last (inclusive).
	// An episode still open at the end of the series has End = last sample.
	Start, End uint64
	PeakBurn   float64 // peak slow-window burn over the episode
	Open       bool    // true when the series ended mid-episode
}

// AlertReport is one objective's full replay result.
type AlertReport struct {
	Objective   Objective
	Transitions []Transition
	Episodes    []Episode
	// FiringPeriods lists every sample index at which the state machine
	// stood in StateFiring — the doctor's join key against decisions and
	// trace spans.
	FiringPeriods []uint64
	Final         AlertState
}

// Fired returns how many episodes reached firing.
func (r AlertReport) Fired() int { return len(r.Episodes) }

// Replay evaluates objectives over every retained sample of a series (live
// or parsed) and returns per-objective reports. This is the doctor's
// entry point: the same Engine state machine, driven sample by sample,
// with transition provenance captured instead of exported. Offline path:
// allocates freely. Objectives the series cannot evaluate — the ones
// NewEngine panics on — are an error here, because replayed objectives
// come from a file.
func Replay(series *telemetry.Series, objectives []Objective) ([]AlertReport, error) {
	alerts, err := resolve(series, objectives)
	if err != nil {
		return nil, err
	}
	eng := &Engine{series: series, alerts: alerts}
	reports := make([]AlertReport, len(eng.alerts))
	for i := range eng.alerts {
		reports[i] = AlertReport{Objective: eng.alerts[i].obj}
	}

	first := series.FirstRetained()
	last := series.Samples()
	for end := first + 1; end <= last; end++ {
		for i := range eng.alerts {
			a := &eng.alerts[i]
			fast := burnAt(series, a, end, a.obj.FastWindow)
			slow := burnAt(series, a, end, a.obj.Window)
			prev := a.state
			eng.step(a, fast, slow, uint64(end))
			r := &reports[i]
			if a.state != prev {
				r.Transitions = append(r.Transitions, Transition{
					Period: uint64(end), From: prev, To: a.state, Fast: fast, Slow: slow,
				})
			}
			if a.state == StateFiring {
				r.FiringPeriods = append(r.FiringPeriods, uint64(end-1))
				if prev != StateFiring {
					r.Episodes = append(r.Episodes, Episode{Start: a.episodeStart, PeakBurn: a.peakBurn})
				}
				ep := &r.Episodes[len(r.Episodes)-1]
				ep.End = uint64(end - 1)
				ep.PeakBurn = a.peakBurn
			}
		}
	}
	for i := range eng.alerts {
		reports[i].Final = eng.alerts[i].state
		if n := len(reports[i].Episodes); n > 0 && eng.alerts[i].state == StateFiring {
			reports[i].Episodes[n-1].Open = true
		}
	}
	return reports, nil
}
