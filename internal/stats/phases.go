package stats

import (
	"fmt"
	"math"
)

// Phase is one detected stable region of a per-period series.
type Phase struct {
	Start, End int // period indices, [Start, End)
	Mean       float64
}

// Len returns the phase length in periods.
func (p Phase) Len() int { return p.End - p.Start }

// DetectPhases segments a per-period series (e.g. LLC misses) into stable
// phases using sliding-window change-point detection: a boundary is placed
// where the mean of the trailing `window` periods differs from the mean of
// the leading `window` periods by more than relThreshold (relative to
// their pooled mean) and at least absThreshold. Boundaries closer than
// `window` periods apart are merged.
//
// This quantifies the phase structure the paper's Figure 3 shows for
// xalancbmk and mcf: phased benchmarks yield several long phases with very
// different means, while flat benchmarks yield a single phase.
func DetectPhases(series []float64, window int, relThreshold, absThreshold float64) []Phase {
	if window <= 0 {
		panic(fmt.Sprintf("stats: phase window %d must be positive", window))
	}
	if relThreshold < 0 || absThreshold < 0 {
		panic("stats: phase thresholds must be non-negative")
	}
	if len(series) < 2*window {
		if len(series) == 0 {
			return nil
		}
		return []Phase{{Start: 0, End: len(series), Mean: Mean(series)}}
	}

	// Score every candidate split point, then keep one boundary per
	// contiguous run of above-threshold points — the locally strongest.
	type candidate struct {
		idx  int
		diff float64
	}
	var cands []candidate
	for i := window; i+window <= len(series); i++ {
		left := Mean(series[i-window : i])
		right := Mean(series[i : i+window])
		pooled := (left + right) / 2
		diff := math.Abs(right - left)
		if diff < absThreshold {
			continue
		}
		if pooled > 0 && diff/pooled < relThreshold {
			continue
		}
		cands = append(cands, candidate{i, diff})
	}
	var boundaries []int
	for i := 0; i < len(cands); {
		j := i
		best := cands[i]
		for j+1 < len(cands) && cands[j+1].idx-cands[j].idx < window {
			j++
			if cands[j].diff > best.diff {
				best = cands[j]
			}
		}
		boundaries = append(boundaries, best.idx)
		i = j + 1
	}

	cuts := append([]int{0}, boundaries...)
	cuts = append(cuts, len(series))
	phases := make([]Phase, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		seg := series[cuts[i]:cuts[i+1]]
		phases = append(phases, Phase{Start: cuts[i], End: cuts[i+1], Mean: Mean(seg)})
	}
	return phases
}
