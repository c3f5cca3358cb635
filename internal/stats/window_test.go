package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewWindowPanicsOnNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWindow(%d) did not panic", c)
				}
			}()
			NewWindow(c)
		}()
	}
}

func TestWindowEmpty(t *testing.T) {
	w := NewWindow(4)
	if w.Len() != 0 {
		t.Errorf("Len() = %d, want 0", w.Len())
	}
	if len(w.buf) != 4 {
		t.Errorf("Cap() = %d, want 4", len(w.buf))
	}
	if w.count == len(w.buf) {
		t.Error("empty window reports Full")
	}
	if got := w.Mean(); got != 0 {
		t.Errorf("Mean() of empty window = %v, want 0", got)
	}
	if got := w.sum; got != 0 {
		t.Errorf("Sum() of empty window = %v, want 0", got)
	}
}

func TestWindowPushBelowCapacity(t *testing.T) {
	w := NewWindow(5)
	w.Push(1)
	w.Push(2)
	w.Push(3)
	if w.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", w.Len())
	}
	if w.count == len(w.buf) {
		t.Error("window of 3/5 reports Full")
	}
	if got := w.Mean(); got != 2 {
		t.Errorf("Mean() = %v, want 2", got)
	}
	if got := w.Last(); got != 3 {
		t.Errorf("Last() = %v, want 3", got)
	}
	for i, want := range []float64{1, 2, 3} {
		if got := w.At(i); got != want {
			t.Errorf("At(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, v := range []float64{1, 2, 3, 4, 5} {
		w.Push(v)
	}
	if !(w.count == len(w.buf)) {
		t.Error("window not Full after overfilling")
	}
	want := []float64{3, 4, 5}
	got := snapshot(w)
	if len(got) != len(want) {
		t.Fatalf("Snapshot length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Snapshot[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if m := w.Mean(); m != 4 {
		t.Errorf("Mean() = %v, want 4", m)
	}
}

func TestWindowMeanRange(t *testing.T) {
	w := NewWindow(6)
	for _, v := range []float64{10, 20, 30, 40} {
		w.Push(v)
	}
	cases := []struct {
		from, to int
		want     float64
	}{
		{0, 4, 25},
		{0, 2, 15},
		{2, 4, 35},
		{1, 1, 0},
	}
	for _, c := range cases {
		if got := w.MeanRange(c.from, c.to); got != c.want {
			t.Errorf("MeanRange(%d,%d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestWindowMeanRangeAfterWrap(t *testing.T) {
	w := NewWindow(4)
	for _, v := range []float64{1, 2, 3, 4, 5, 6} {
		w.Push(v)
	}
	// Held samples oldest-first: 3 4 5 6.
	if got := w.MeanRange(0, 2); got != 3.5 {
		t.Errorf("MeanRange(0,2) = %v, want 3.5", got)
	}
	if got := w.MeanRange(2, 4); got != 5.5 {
		t.Errorf("MeanRange(2,4) = %v, want 5.5", got)
	}
}

func TestWindowPanics(t *testing.T) {
	w := NewWindow(2)
	w.Push(1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("At(-1)", func() { w.At(-1) })
	mustPanic("At(1)", func() { w.At(1) })
	mustPanic("MeanRange(0,2)", func() { w.MeanRange(0, 2) })
	mustPanic("MeanRange(1,0)", func() { w.MeanRange(1, 0) })
	mustPanic("Last empty", func() { NewWindow(1).Last() })
}

func TestWindowReset(t *testing.T) {
	w := NewWindow(3)
	w.Push(7)
	w.Push(8)
	w.Reset()
	if w.Len() != 0 || w.sum != 0 {
		t.Errorf("after Reset: Len=%d Sum=%v, want 0,0", w.Len(), w.sum)
	}
	w.Push(5)
	if w.Mean() != 5 {
		t.Errorf("Mean after Reset+Push = %v, want 5", w.Mean())
	}
}

// Property: the O(1) running mean always matches a direct recomputation
// from the snapshot, for any push sequence and capacity.
func TestWindowMeanMatchesSnapshotProperty(t *testing.T) {
	f := func(capRaw uint8, vals []float64) bool {
		capacity := int(capRaw%16) + 1
		w := NewWindow(capacity)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Keep magnitudes bounded so float error stays tiny.
			w.Push(math.Mod(v, 1e6))
			snap := snapshot(w)
			var sum float64
			for _, s := range snap {
				sum += s
			}
			want := 0.0
			if len(snap) > 0 {
				want = sum / float64(len(snap))
			}
			if math.Abs(w.Mean()-want) > 1e-6*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: window holds exactly the last min(len(pushes), capacity) values
// in push order.
func TestWindowRetentionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		capacity := rng.Intn(10) + 1
		n := rng.Intn(40)
		w := NewWindow(capacity)
		pushed := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := rng.Float64() * 100
			pushed = append(pushed, v)
			w.Push(v)
		}
		keep := len(pushed)
		if keep > capacity {
			keep = capacity
		}
		want := pushed[len(pushed)-keep:]
		got := snapshot(w)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %d samples, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Snapshot[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// snapshot returns w's held samples oldest-first.
func snapshot(w *Window) []float64 {
	out := make([]float64, w.count)
	for i := range out {
		out[i] = w.At(i)
	}
	return out
}
