package workload

import (
	"math/rand"
	"sort"
	"testing"
)

func TestNewZipfValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("ws=0", func() { NewZipf(0, 0, 1.2, 1, 1, 0) })
	mustPanic("skew<=1", func() { NewZipf(0, 10, 1.0, 1, 1, 0) })
	mustPanic("v<1", func() { NewZipf(0, 10, 1.2, 0.5, 1, 0) })
	mustPanic("wfrac", func() { NewZipf(0, 10, 1.2, 1, 1, 2) })
}

func TestZipfStaysInFootprintAndIsSkewed(t *testing.T) {
	const ws = 1024
	z := NewZipf(5000, ws, 1.3, 1, 7, 0.1)
	r := testRNG()
	counts := make(map[uint64]int)
	const n = 50000
	for i := 0; i < n; i++ {
		a := z.Next(r)
		if a.Addr < 5000 || a.Addr >= 5000+ws {
			t.Fatalf("addr %d outside footprint", a.Addr)
		}
		counts[a.Addr]++
	}
	// Skew: the top-16 lines should take a large share of accesses.
	freqs := make([]int, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	top := 0
	for i := 0; i < 16 && i < len(freqs); i++ {
		top += freqs[i]
	}
	if frac := float64(top) / n; frac < 0.3 {
		t.Errorf("top-16 lines take %.2f of accesses, want heavy skew (>= 0.3)", frac)
	}
	// But the tail is still exercised: many distinct lines touched.
	if len(counts) < ws/4 {
		t.Errorf("only %d distinct lines touched of %d", len(counts), ws)
	}
}

func TestZipfHotLinesScattered(t *testing.T) {
	// The rank->address permutation must spread hot lines: the single
	// hottest address should rarely be address base+0.
	hot0 := 0
	for seed := int64(0); seed < 16; seed++ {
		z := NewZipf(0, 256, 1.5, 1, seed, 0)
		r := rand.New(rand.NewSource(99))
		counts := make(map[uint64]int)
		for i := 0; i < 2000; i++ {
			counts[z.Next(r).Addr]++
		}
		best, bestAddr := 0, uint64(0)
		for a, c := range counts {
			if c > best {
				best, bestAddr = c, a
			}
		}
		if bestAddr == 0 {
			hot0++
		}
	}
	if hot0 > 4 {
		t.Errorf("hottest line was address 0 in %d/16 seeds; permutation not scattering", hot0)
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	z1 := NewZipf(0, 128, 1.2, 1, 5, 0)
	z2 := NewZipf(0, 128, 1.2, 1, 5, 0)
	r1, r2 := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if z1.Next(r1) != z2.Next(r2) {
			t.Fatal("same-seed zipf generators diverged")
		}
	}
}
