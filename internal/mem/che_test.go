package mem

import (
	"math"
	"math/rand"
	"testing"
)

// Che's approximation for LRU (Che, Tung and Wang, IEEE JSAC 2002): under
// independent requests, a line requested at rate λ hits with probability
// 1 − e^(−λT), where the characteristic time T solves
// Σ_lines (1 − e^(−λT)) = C, the cache's capacity in lines. This test
// holds the simulator's L3 to that model: not to another implementation of
// the same algorithm, but to what an LRU cache of its size should do.

// cheMix is two uniform streams over disjoint line ranges, interleaved by a
// coin that picks stream a with probability rateA/(rateA+rateB).
type cheMix struct {
	linesA, linesB int
	rateA, rateB   float64
}

// cheHitRatios returns Che's predicted hit ratio of each stream of m in a
// cache of capacity lines.
func cheHitRatios(m cheMix, capacity int) (a, b float64) {
	pa := m.rateA / (m.rateA + m.rateB)
	la, lb := pa/float64(m.linesA), (1-pa)/float64(m.linesB) // per-line rate, per access
	filled := func(T float64) float64 {
		return float64(m.linesA)*(1-math.Exp(-la*T)) + float64(m.linesB)*(1-math.Exp(-lb*T))
	}
	lo, hi := 0.0, 1.0
	for filled(hi) < float64(capacity) {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if filled(mid) < float64(capacity) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 1 - math.Exp(-la*lo), 1 - math.Exp(-lb*lo)
}

// simHitRatios feeds m through c for accesses references, filling every
// miss, and returns each stream's hit ratio over the references after the
// first quarter (warm-up).
func simHitRatios(c *Cache, m cheMix, accesses int, seed int64) (a, b float64) {
	rng := rand.New(rand.NewSource(seed))
	pa := m.rateA / (m.rateA + m.rateB)
	var hits, refs [2]int
	for i := 0; i < accesses; i++ {
		s, line := 0, uint64(0)
		if rng.Float64() < pa {
			line = uint64(rng.Intn(m.linesA))
		} else {
			s, line = 1, uint64(m.linesA+rng.Intn(m.linesB))
		}
		hit := c.Lookup(line, false)
		if !hit {
			c.Insert(line, 0, false)
		}
		if i >= accesses/4 {
			refs[s]++
			if hit {
				hits[s]++
			}
		}
	}
	return float64(hits[0]) / float64(refs[0]), float64(hits[1]) / float64(refs[1])
}

// TestL3MatchesCheApproximation runs five two-stream mixes, from a small
// hot set against a large cold one to two equal sets that both overflow,
// through a bare cache of the L3's geometry (512 sets × 16 ways = 8,192
// lines) and checks each stream's hit ratio against Che's prediction.
//
// Tolerance 0.01. Che models a fully associative cache; this one is 16-way
// set-associative, and each 16-line set sees a Poisson share of the load,
// which moves the simulated ratio by up to about 0.006 in the worst mix
// (2,000/30,000 lines at 1:1). The counted 750,000 references put the
// sampling error near 0.001. A cache one way short or long (15 or 17 ways)
// misses Che's 16-way prediction by 0.02 to 0.03 on the 4,096/16,384 mix.
func TestL3MatchesCheApproximation(t *testing.T) {
	const (
		sets, ways = 512, 16
		accesses   = 1_000_000
		tol        = 0.01
	)
	mixes := []cheMix{
		{2_000, 30_000, 1, 1},
		{4_096, 16_384, 1, 1},
		{4_096, 16_384, 3, 1},
		{8_192, 12_288, 2, 1},
		{20_000, 20_000, 3, 1},
	}
	for i, m := range mixes {
		wantA, wantB := cheHitRatios(m, sets*ways)
		gotA, gotB := simHitRatios(NewCache(Config{Sets: sets, Ways: ways}), m, accesses, int64(i+1))
		t.Logf("%d/%d lines at %g:%g: sim %.4f/%.4f, Che %.4f/%.4f", m.linesA, m.linesB, m.rateA, m.rateB, gotA, gotB, wantA, wantB)
		if math.Abs(gotA-wantA) > tol || math.Abs(gotB-wantB) > tol {
			t.Errorf("%d/%d lines at %g:%g: hit ratios %.4f/%.4f, Che predicts %.4f/%.4f (tolerance %g)",
				m.linesA, m.linesB, m.rateA, m.rateB, gotA, gotB, wantA, wantB, tol)
		}
	}
}
