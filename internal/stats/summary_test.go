package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); got != c.want {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15},
		{100, 50},
		{50, 35},
		{25, 20},
		{40, 29}, // rank 1.6 -> 20 + 0.6*(35-20)
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 90); got != 7 {
		t.Errorf("Percentile(single) = %v, want 7", got)
	}
	// Input must not be reordered.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", orig)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Percentile(101) did not panic")
			}
		}()
		Percentile(xs, 101)
	}()
}

func TestCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	pos := []float64{2, 4, 6, 8, 10}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, pos); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Correlation(perfect positive) = %v, want 1", got)
	}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Correlation(perfect negative) = %v, want -1", got)
	}
	if got := Correlation(xs, []float64{5, 5, 5, 5, 5}); got != 0 {
		t.Errorf("Correlation(constant) = %v, want 0", got)
	}
	if got := Correlation([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("Correlation(short) = %v, want 0", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Correlation length mismatch did not panic")
			}
		}()
		Correlation(xs, xs[:3])
	}()
}

// Property: correlation is always in [-1, 1] and symmetric in its arguments.
func TestCorrelationRangeSymmetryProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			x, y := raw[i], raw[n+i]
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return true
			}
			xs[i], ys[i] = math.Mod(x, 1e6), math.Mod(y, 1e6)
		}
		c := Correlation(xs, ys)
		if c < -1-1e-9 || c > 1+1e-9 {
			return false
		}
		return almostEqual(c, Correlation(ys, xs), 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
