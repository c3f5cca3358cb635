package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// bucketPair is one (upper edge, cumulative count) pair EachBucket yields.
type bucketPair struct {
	le  float64
	cum uint64
}

func bucketPairs(h *Histogram) []bucketPair {
	var ps []bucketPair
	h.EachBucket(func(le float64, cum uint64) { ps = append(ps, bucketPair{le, cum}) })
	return ps
}

func TestNewHistogramValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero buckets", func() { NewHistogram(0, 1, 0) })
	mustPanic("empty range", func() { NewHistogram(1, 1, 4) })
	mustPanic("inverted range", func() { NewHistogram(2, 1, 4) })
	mustPanic("registered, zero buckets", func() { NewRegistry().Histogram("test_h", "h", 0, 1, 0) })
}

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 5) // buckets of width 2
	for _, v := range []float64{0, 1.9, 2, 5, 9.99, -1, 10, 100} {
		h.Observe(v)
	}
	h.AddN(3, 0) // n == 0 records nothing
	if h.N() != 8 || h.Buckets() != 5 {
		t.Fatalf("N = %d, Buckets = %d, want 8, 5", h.N(), h.Buckets())
	}
	// In range 2, 1, 1, 0, 1; one underflow folded into the first bucket,
	// two overflows only under +Inf.
	want := []bucketPair{{2, 3}, {4, 4}, {6, 5}, {8, 5}, {10, 6}, {math.Inf(1), 8}}
	if got := bucketPairs(h); !reflect.DeepEqual(got, want) {
		t.Fatalf("EachBucket = %v, want %v", got, want)
	}
	h.AddN(5, 3)
	if h.N() != 11 || h.Sum() != 127.89+15 {
		t.Fatalf("after AddN(5, 3): N = %d, Sum = %v, want 11, %v", h.N(), h.Sum(), 127.89+15)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 100; i++ {
		h.Observe(float64(i))
	}
	cases := []struct{ q, want, tol float64 }{
		{0.5, 50, 2},
		{0.9, 90, 2},
		{0.0, 0, 1},
		{1.0, 100, 1},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got < c.want-c.tol || got > c.want+c.tol {
			t.Errorf("Quantile(%v) = %v, want %v±%v", c.q, got, c.want, c.tol)
		}
	}
	if got := NewHistogram(0, 1, 2).Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("quantile > 1 did not panic")
		}
	}()
	h.Quantile(1.5)
}

// Property: the cumulative counts never fall and end at N (in-range buckets
// plus both tails), and quantiles are monotone in q.
func TestHistogramInvariantsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewHistogram(-50, 50, 20)
		n := int(nRaw % 500)
		for i := 0; i < n; i++ {
			h.Observe(rng.NormFloat64() * 40)
		}
		ps := bucketPairs(h)
		for i := 1; i < len(ps); i++ {
			if ps[i].cum < ps[i-1].cum {
				return false
			}
		}
		if ps[len(ps)-1].cum != h.N() || h.N() != uint64(n) {
			return false
		}
		prev := h.Quantile(0)
		for q := 0.1; q <= 1.0; q += 0.1 {
			cur := h.Quantile(q)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are merge-invariant — splitting one sample stream
// across k same-geometry histograms and merging them reproduces the
// single-histogram quantiles exactly. The fleet report leans on this when
// it merges per-machine distributions before calling Quantile.
func TestQuantileMergeInvarianceProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 800)
		k := int(kRaw%4) + 2
		whole := NewHistogram(0, 100, 25)
		parts := make([]*Histogram, k)
		for i := range parts {
			parts[i] = NewHistogram(0, 100, 25)
		}
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()*35 + 50 // includes under/overflow samples
			whole.Observe(v)
			parts[rng.Intn(k)].Observe(v)
		}
		merged := parts[0]
		for _, part := range parts[1:] {
			merged.Merge(part)
		}
		if merged.N() != whole.N() {
			return false
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if merged.Quantile(q) != whole.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestHistogramMergeQuantiles: a merged histogram equals one histogram fed
// the union of both sample streams — every bucket, both tails, the sum and
// every quantile.
func TestHistogramMergeQuantiles(t *testing.T) {
	a := NewHistogram(0, 100, 20)
	b := NewHistogram(0, 100, 20)
	union := NewHistogram(0, 100, 20)
	// Two deliberately different shapes: a low cluster and a high cluster,
	// plus outliers on both sides.
	as := []float64{-5, 1, 3, 7, 12, 12.5, 18, 22, 40}
	bs := []float64{55, 60, 61, 75, 88, 93, 99.9, 150, 200}
	for _, v := range as {
		a.Observe(v)
		union.Observe(v)
	}
	for _, v := range bs {
		b.Observe(v)
		union.Observe(v)
	}
	a.Merge(b)
	if a.N() != union.N() || a.Sum() != union.Sum() {
		t.Fatalf("merged N, Sum = %d, %v; union %d, %v", a.N(), a.Sum(), union.N(), union.Sum())
	}
	if got, want := bucketPairs(a), bucketPairs(union); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged buckets %v, union %v", got, want)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		if got, want := a.Quantile(q), union.Quantile(q); math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v after merge, want %v", q, got, want)
		}
	}
}

// TestHistogramMergeEmpty pins that an empty histogram is merge's identity
// on either side.
func TestHistogramMergeEmpty(t *testing.T) {
	empty := NewHistogram(0, 10, 5)
	// Empty ∪ empty stays empty; quantiles of an empty histogram are 0.
	other := NewHistogram(0, 10, 5)
	empty.Merge(other)
	if empty.N() != 0 {
		t.Fatalf("empty merge produced %d samples", empty.N())
	}
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram Quantile(0.5) = %v, want 0", q)
	}
	// Merging an empty histogram into a populated one is a no-op.
	h := NewHistogram(0, 10, 5)
	h.Observe(2)
	h.Observe(8)
	before := h.Quantile(0.5)
	h.Merge(other)
	if h.N() != 2 || h.Quantile(0.5) != before {
		t.Fatalf("no-op merge changed state: n=%d q50=%v (want 2, %v)", h.N(), h.Quantile(0.5), before)
	}
	// Merging a populated histogram into an empty one adopts it exactly.
	e2 := NewHistogram(0, 10, 5)
	e2.Merge(h)
	if e2.N() != 2 || e2.Quantile(0.5) != h.Quantile(0.5) {
		t.Fatalf("merge into empty: n=%d q50=%v, want 2, %v", e2.N(), e2.Quantile(0.5), h.Quantile(0.5))
	}
}

// TestHistogramMergeManyEmpty pins that merging several empties interleaved
// with a populated histogram adds only the populated one's counts.
func TestHistogramMergeManyEmpty(t *testing.T) {
	g := NewHistogram(0, 10, 5)
	g.Observe(3)
	pop := NewHistogram(0, 10, 5)
	pop.Observe(7)
	for _, o := range []*Histogram{NewHistogram(0, 10, 5), pop, NewHistogram(0, 10, 5)} {
		g.Merge(o)
	}
	want := []bucketPair{{2, 0}, {4, 1}, {6, 1}, {8, 2}, {10, 2}, {math.Inf(1), 2}}
	if got := bucketPairs(g); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge over empties: buckets %v, want %v", got, want)
	}
}

// TestHistogramMergeOrderInvariance is the fleet-aggregation property: for
// random sample streams split across several histograms, every bucket and
// quantile of the merge is identical under any merge-order permutation.
func TestHistogramMergeOrderInvariance(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const parts = 5
		hs := make([]*Histogram, parts)
		for i := range hs {
			hs[i] = NewHistogram(0, 100, 16)
			for n := rng.Intn(40); n > 0; n-- {
				hs[i].Observe(rng.Float64()*140 - 20) // includes under/overflow
			}
		}
		forward := NewHistogram(0, 100, 16)
		for _, h := range hs {
			forward.Merge(h)
		}
		shuffled := NewHistogram(0, 100, 16)
		for _, i := range rng.Perm(parts) {
			shuffled.Merge(hs[i])
		}
		if forward.N() != shuffled.N() || !reflect.DeepEqual(bucketPairs(forward), bucketPairs(shuffled)) {
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if forward.Quantile(q) != shuffled.Quantile(q) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeMismatchPanics(t *testing.T) {
	cases := []*Histogram{
		NewHistogram(0, 50, 20),  // different max
		NewHistogram(1, 100, 20), // different min
		NewHistogram(0, 100, 10), // different bucket count
		nil,
	}
	for i, other := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: merge of mismatched geometry did not panic", i)
				}
			}()
			NewHistogram(0, 100, 20).Merge(other)
		}()
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	for _, v := range []float64{-1, 2, 5, 20} {
		h.Observe(v)
	}
	h.Reset()
	if h.N() != 0 || h.Sum() != 0 {
		t.Fatalf("Reset left N = %d, Sum = %v", h.N(), h.Sum())
	}
	for _, p := range bucketPairs(h) {
		if p.cum != 0 {
			t.Fatalf("Reset left counts: %v", bucketPairs(h))
		}
	}
	h.Observe(7)
	if got := h.Quantile(1); got < 6 || got > 8 {
		t.Fatalf("post-Reset Quantile(1) = %v, want ~7", got)
	}
}
