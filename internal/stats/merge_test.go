package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestHistogramMergeQuantiles pins the property the sched classifier's
// per-domain aggregation relies on: quantiles of a merged histogram equal
// quantiles of one histogram fed the union of both sample streams.
func TestHistogramMergeQuantiles(t *testing.T) {
	a := NewHistogram(0, 100, 20)
	b := NewHistogram(0, 100, 20)
	union := NewHistogram(0, 100, 20)
	// Two deliberately different shapes: a low cluster and a high cluster,
	// plus outliers on both sides.
	as := []float64{-5, 1, 3, 7, 12, 12.5, 18, 22, 40}
	bs := []float64{55, 60, 61, 75, 88, 93, 99.9, 150, 200}
	for _, v := range as {
		a.Add(v)
		union.Add(v)
	}
	for _, v := range bs {
		b.Add(v)
		union.Add(v)
	}
	a.Merge(b)
	if a.N() != union.N() {
		t.Fatalf("merged N = %d, union N = %d", a.N(), union.N())
	}
	au, ao := a.Outliers()
	uu, uo := union.Outliers()
	if au != uu || ao != uo {
		t.Fatalf("merged outliers (%d,%d) != union outliers (%d,%d)", au, ao, uu, uo)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		got, want := a.Quantile(q), union.Quantile(q)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v after merge, want %v", q, got, want)
		}
	}
	for i := 0; i < union.Buckets(); i++ {
		gc, _, _ := a.Bucket(i)
		wc, _, _ := union.Bucket(i)
		if gc != wc {
			t.Errorf("bucket %d count = %d after merge, want %d", i, gc, wc)
		}
	}
}

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
	h.Add(2)
	h.Add(8)
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

// TestHistogramMergeManyEmpty pins that folding any number of empty
// histograms — interleaved with populated ones — is a no-op beyond the
// populated counts, and that MergeMany with no arguments changes nothing.
func TestHistogramMergeManyEmpty(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(3)
	before := h.Quantile(0.5)
	h.MergeMany()
	if h.N() != 1 || h.Quantile(0.5) != before {
		t.Fatalf("MergeMany() changed state: n=%d", h.N())
	}
	e1, e2, e3 := NewHistogram(0, 10, 5), NewHistogram(0, 10, 5), NewHistogram(0, 10, 5)
	e2.Add(7)
	h.MergeMany(e1, e2, e3)
	if h.N() != 2 {
		t.Fatalf("MergeMany over empties: n=%d, want 2", h.N())
	}
	if u, o := h.Outliers(); u != 0 || o != 0 {
		t.Fatalf("MergeMany over empties left outliers (%d,%d)", u, o)
	}
}

// TestHistogramMergeOrderInvariance is the fleet-aggregation property: for
// random sample streams split across several histograms, every quantile of
// the MergeMany result is identical under any merge-order permutation.
func TestHistogramMergeOrderInvariance(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const parts = 5
		hs := make([]*Histogram, parts)
		for i := range hs {
			hs[i] = NewHistogram(0, 100, 16)
			for n := rng.Intn(40); n > 0; n-- {
				hs[i].Add(rng.Float64()*140 - 20) // includes under/overflow
			}
		}
		forward := NewHistogram(0, 100, 16)
		forward.MergeMany(hs...)
		perm := rng.Perm(parts)
		shuffled := NewHistogram(0, 100, 16)
		for _, i := range perm {
			shuffled.Merge(hs[i])
		}
		if forward.N() != shuffled.N() {
			return false
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if forward.Quantile(q) != shuffled.Quantile(q) {
				return false
			}
		}
		for i := 0; i < forward.Buckets(); i++ {
			fc, _, _ := forward.Bucket(i)
			sc, _, _ := shuffled.Bucket(i)
			if fc != sc {
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
	}
	for i, other := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: merge of mismatched geometry did not panic", i)
				}
			}()
			h := NewHistogram(0, 100, 20)
			h.Merge(other)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("merge with nil histogram did not panic")
			}
		}()
		NewHistogram(0, 100, 20).Merge(nil)
	}()
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 4)
	for _, v := range []float64{-1, 2, 5, 20} {
		h.Add(v)
	}
	h.Reset()
	if h.N() != 0 {
		t.Fatalf("Reset left %d samples", h.N())
	}
	u, o := h.Outliers()
	if u != 0 || o != 0 {
		t.Fatalf("Reset left outliers (%d,%d)", u, o)
	}
	h.Add(7)
	if got := h.Quantile(1); got < 6 || got > 8 {
		t.Fatalf("post-Reset Quantile(1) = %v, want ~7", got)
	}
}
