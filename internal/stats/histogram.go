package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Histogram bins float64 samples into fixed-width buckets over [min, max),
// with underflow/overflow buckets at the ends. It summarizes per-period
// PMU sample distributions (e.g. how a benchmark's LLC misses per period
// are distributed across its phases).
type Histogram struct {
	min, max float64
	width    float64
	buckets  []uint64
	under    uint64
	over     uint64
	n        uint64
}

// NewHistogram creates a histogram with `buckets` equal-width bins over
// [min, max). It panics on a non-positive bucket count or an empty range.
func NewHistogram(min, max float64, buckets int) *Histogram {
	if buckets <= 0 {
		panic(fmt.Sprintf("stats: histogram needs positive bucket count, got %d", buckets))
	}
	if !(max > min) {
		panic(fmt.Sprintf("stats: histogram range [%v,%v) is empty", min, max))
	}
	return &Histogram{
		min: min, max: max,
		width:   (max - min) / float64(buckets),
		buckets: make([]uint64, buckets),
	}
}

// Add records one sample.
func (h *Histogram) Add(v float64) {
	h.n++
	switch {
	case v < h.min:
		h.under++
	case v >= h.max:
		h.over++
	default:
		idx := int((v - h.min) / h.width)
		if idx >= len(h.buckets) { // float edge case at the top boundary
			idx = len(h.buckets) - 1
		}
		h.buckets[idx]++
	}
}

// AddN records n samples of value v at once. Aggregation paths (e.g.
// converting telemetry's atomic bucket counts into a Histogram for quantile
// math) use this to replay bucketed counts without a per-sample loop.
func (h *Histogram) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	h.n += n
	switch {
	case v < h.min:
		h.under += n
	case v >= h.max:
		h.over += n
	default:
		idx := int((v - h.min) / h.width)
		if idx >= len(h.buckets) { // float edge case at the top boundary
			idx = len(h.buckets) - 1
		}
		h.buckets[idx] += n
	}
}

// N returns the total sample count.
func (h *Histogram) N() uint64 { return h.n }

// Bucket returns bucket i's count and its [lo, hi) range.
func (h *Histogram) Bucket(i int) (count uint64, lo, hi float64) {
	if i < 0 || i >= len(h.buckets) {
		panic(fmt.Sprintf("stats: histogram bucket %d out of range [0,%d)", i, len(h.buckets)))
	}
	return h.buckets[i], h.min + float64(i)*h.width, h.min + float64(i+1)*h.width
}

// Buckets returns the number of (in-range) buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Outliers returns the underflow and overflow counts.
func (h *Histogram) Outliers() (under, over uint64) { return h.under, h.over }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) by
// linear interpolation within the containing bucket. Underflow samples
// count as min, overflow as max. It panics for q outside [0,1] and returns
// 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := float64(h.under)
	if target <= cum {
		return h.min
	}
	for i, c := range h.buckets {
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.min + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.max
}

// Merge adds other's counts into h. Both histograms must have identical
// bucket geometry (range and bucket count); it panics otherwise.
// Quantiles of the merge equal quantiles of the union of the underlying
// sample streams — the fleet report merges per-machine latency histograms
// this way. Merging an empty histogram is a no-op.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		panic("stats: Merge with nil histogram")
	}
	if h.min != other.min || h.max != other.max || len(h.buckets) != len(other.buckets) {
		panic(fmt.Sprintf("stats: Merge of mismatched histograms [%v,%v)x%d vs [%v,%v)x%d",
			h.min, h.max, len(h.buckets), other.min, other.max, len(other.buckets)))
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.under += other.under
	h.over += other.over
	h.n += other.n
}

// MergeMany folds every given histogram into h in order. Merge is
// commutative and associative on the counts, so the result — including
// every quantile — is independent of merge order; fleet-wide aggregation
// (N machines' per-job latency histograms into one distribution) relies on
// that. Merging an empty histogram is a no-op.
func (h *Histogram) MergeMany(others ...*Histogram) {
	for _, o := range others {
		h.Merge(o)
	}
}

// Reset zeroes all counts, keeping the bucket geometry.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.under, h.over, h.n = 0, 0, 0
}

// Render writes an ASCII histogram, one bucket per line, bars scaled to
// the largest bucket.
func (h *Histogram) Render(w io.Writer, barWidth int) error {
	if barWidth <= 0 {
		barWidth = 40
	}
	var peak uint64 = 1
	for _, c := range h.buckets {
		if c > peak {
			peak = c
		}
	}
	if h.under > 0 {
		if _, err := fmt.Fprintf(w, "%12s  %d\n", "< min", h.under); err != nil {
			return err
		}
	}
	for i := range h.buckets {
		c, lo, _ := h.Bucket(i)
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(peak)*float64(barWidth))))
		if _, err := fmt.Fprintf(w, "%12.1f  %-*s %d\n", lo, barWidth, bar, c); err != nil {
			return err
		}
	}
	if h.over > 0 {
		if _, err := fmt.Fprintf(w, "%12s  %d\n", ">= max", h.over); err != nil {
			return err
		}
	}
	return nil
}
