// Package stats provides small statistical building blocks used throughout
// the CAER runtime and its evaluation harness: fixed-size sliding windows,
// running aggregates, and summary statistics.
//
// The CAER heuristics (Algorithms 1 and 2 of the paper) operate on windows
// of per-period last-level-cache miss samples; Window is the direct
// implementation of the "l_window" / "r_window" structures in those
// algorithms.
package stats

import "fmt"

// Window is a fixed-capacity sliding window of float64 samples. Pushing a
// sample when the window is full evicts the oldest sample. The zero value is
// not usable; construct with NewWindow.
//
// Window additionally maintains the running sum so that Mean is O(1), which
// matters because the CAER engine recomputes window means every sampling
// period (1 ms in the paper's configuration).
type Window struct {
	buf   []float64
	head  int // index of the oldest sample
	count int // number of valid samples, <= len(buf)
	sum   float64
}

// NewWindow returns an empty window holding at most capacity samples.
// It panics if capacity is not positive.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("stats: window capacity must be positive, got %d", capacity))
	}
	return &Window{buf: make([]float64, capacity)}
}

// Len returns the number of samples currently held.
func (w *Window) Len() int { return w.count }

// Push appends a sample, evicting the oldest if the window is full.
func (w *Window) Push(v float64) {
	if w.count == len(w.buf) {
		w.sum -= w.buf[w.head]
		w.buf[w.head] = v
		w.sum += v
		w.head = (w.head + 1) % len(w.buf)
		return
	}
	w.buf[(w.head+w.count)%len(w.buf)] = v
	w.sum += v
	w.count++
}

// At returns the i-th sample, where 0 is the oldest held sample.
// It panics if i is out of range.
func (w *Window) At(i int) float64 {
	if i < 0 || i >= w.count {
		panic(fmt.Sprintf("stats: window index %d out of range [0,%d)", i, w.count))
	}
	return w.buf[(w.head+i)%len(w.buf)]
}

// Last returns the most recently pushed sample.
// It panics if the window is empty.
func (w *Window) Last() float64 {
	if w.count == 0 {
		panic("stats: Last on empty window")
	}
	return w.At(w.count - 1)
}

// Mean returns the arithmetic mean of held samples, or 0 for an empty window.
func (w *Window) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// MeanRange returns the mean of samples in [from, to) by window position,
// where position 0 is the oldest held sample. It returns 0 for an empty
// range. It panics if the range is invalid.
//
// This implements the two sub-window averages of the Burst-Shutter
// algorithm: the steady average over [0, switch_point) and the burst
// average over [switch_point, end_point).
func (w *Window) MeanRange(from, to int) float64 {
	if from < 0 || to > w.count || from > to {
		panic(fmt.Sprintf("stats: invalid window range [%d,%d) with %d samples", from, to, w.count))
	}
	if from == to {
		return 0
	}
	var s float64
	for i := from; i < to; i++ {
		s += w.At(i)
	}
	return s / float64(to-from)
}

// Reset discards all samples, keeping capacity.
func (w *Window) Reset() {
	w.head = 0
	w.count = 0
	w.sum = 0
	for i := range w.buf {
		w.buf[i] = 0
	}
}
