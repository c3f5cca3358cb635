// Package trace records full co-location runs at period granularity —
// every core's per-period LLC misses, retired instructions and throttle
// state — exports them as Chrome trace-event JSON for offline analysis, and
// provides the phase-boundary detection used to quantify the program phases
// the paper's Figure 3 shows qualitatively.
package trace

import "fmt"

// CoreSample is one core's activity during one period.
type CoreSample struct {
	LLCMisses    uint64
	Instructions uint64
	Paused       bool
}

// Record is one period's snapshot across all cores.
type Record struct {
	Period uint64
	Cores  []CoreSample
}

// Trace is a recorded run.
type Trace struct {
	CoreCount int
	Records   []Record
}

// New creates an empty trace for the given core count.
func New(coreCount int) *Trace {
	if coreCount <= 0 {
		panic(fmt.Sprintf("trace: core count %d must be positive", coreCount))
	}
	return &Trace{CoreCount: coreCount}
}

// Append adds one period's record; the sample count must match CoreCount.
func (t *Trace) Append(period uint64, cores []CoreSample) {
	if len(cores) != t.CoreCount {
		panic(fmt.Sprintf("trace: record has %d cores, trace has %d", len(cores), t.CoreCount))
	}
	cs := make([]CoreSample, len(cores))
	copy(cs, cores)
	t.Records = append(t.Records, Record{Period: period, Cores: cs})
}

// Len returns the number of recorded periods.
func (t *Trace) Len() int { return len(t.Records) }

// MissSeries extracts core's per-period LLC misses.
func (t *Trace) MissSeries(core int) []float64 {
	return t.series(core, func(c CoreSample) float64 { return float64(c.LLCMisses) })
}

// InstrSeries extracts core's per-period retired instructions.
func (t *Trace) InstrSeries(core int) []float64 {
	return t.series(core, func(c CoreSample) float64 { return float64(c.Instructions) })
}

// PausedFraction returns the fraction of periods core spent throttled.
func (t *Trace) PausedFraction(core int) float64 {
	if len(t.Records) == 0 {
		return 0
	}
	n := 0
	for _, r := range t.Records {
		if r.Cores[core].Paused {
			n++
		}
	}
	return float64(n) / float64(len(t.Records))
}

func (t *Trace) series(core int, f func(CoreSample) float64) []float64 {
	if core < 0 || core >= t.CoreCount {
		panic(fmt.Sprintf("trace: core %d out of range [0,%d)", core, t.CoreCount))
	}
	out := make([]float64, len(t.Records))
	for i, r := range t.Records {
		out[i] = f(r.Cores[core])
	}
	return out
}
