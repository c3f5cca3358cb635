package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Errorf("empty Running not all-zero: n=%d mean=%v var=%v", r.N(), r.Mean(), r.Variance())
	}
}

func TestRunningKnownValues(t *testing.T) {
	var r Running
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(v)
	}
	if r.N() != 8 {
		t.Errorf("N = %d, want 8", r.N())
	}
	if got := r.Mean(); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic set is 32/7.
	if got, want := r.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("Min,Max = %v,%v, want 2,9", r.Min(), r.Max())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(-3.5)
	if r.Mean() != -3.5 || r.Min() != -3.5 || r.Max() != -3.5 {
		t.Errorf("single-sample stats wrong: %+v", r)
	}
	if r.Variance() != 0 {
		t.Errorf("Variance of one sample = %v, want 0", r.Variance())
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(1)
	r.Add(2)
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 {
		t.Errorf("Reset did not clear: %+v", r)
	}
}

// Property: Welford mean/variance agree with the naive two-pass formulas.
func TestRunningMatchesNaiveProperty(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, math.Mod(v, 1e4))
		}
		if len(vals) < 2 {
			return true
		}
		var r Running
		for _, v := range vals {
			r.Add(v)
		}
		m := Mean(vals)
		var ss float64
		for _, v := range vals {
			ss += (v - m) * (v - m)
		}
		wantVar := ss / float64(len(vals)-1)
		tol := 1e-8 * (1 + math.Abs(wantVar))
		return math.Abs(r.Mean()-m) < 1e-9*(1+math.Abs(m)) && math.Abs(r.Variance()-wantVar) < tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
