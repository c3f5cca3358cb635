package stats

import "math"

// Running accumulates streaming summary statistics (count, mean, variance,
// min, max) without storing samples, using Welford's algorithm for numerical
// stability. The zero value is an empty accumulator ready for use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (r *Running) Add(v float64) {
	r.n++
	if r.n == 1 {
		r.mean = v
		r.min = v
		r.max = v
		return
	}
	d := v - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (v - r.mean)
	if v < r.min {
		r.min = v
	}
	if v > r.max {
		r.max = v
	}
}

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 when empty.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the minimum sample, or 0 when empty.
func (r *Running) Min() float64 { return r.min }

// Max returns the maximum sample, or 0 when empty.
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Reset returns the accumulator to its empty state.
func (r *Running) Reset() { *r = Running{} }

// Merge folds other's samples into r using Chan et al.'s parallel variance
// combination, as if every sample of both accumulators had been Added to r.
// Merging an empty accumulator (in either direction) is exact. The sched
// classifier merges per-application summaries into per-domain summaries
// this way.
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	n1, n2 := float64(r.n), float64(other.n)
	d := other.mean - r.mean
	n := n1 + n2
	r.m2 += other.m2 + d*d*n1*n2/n
	r.mean += d * n2 / n
	r.n += other.n
	if other.min < r.min {
		r.min = other.min
	}
	if other.max > r.max {
		r.max = other.max
	}
}
