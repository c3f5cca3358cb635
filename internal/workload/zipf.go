package workload

import (
	"fmt"
	"math/rand"
)

// Zipf references lines with a Zipf-distributed popularity over a working
// set — the canonical model for skewed real-world access patterns
// (posting lists, key-value caches, object popularity). Rank 0 is the
// hottest line; the skew parameter s > 1 controls how concentrated the
// head is.
//
// The rank-to-address mapping is a fixed pseudo-random permutation so hot
// lines scatter across cache sets rather than clustering at the footprint's
// start.
type Zipf struct {
	base  uint64
	perm  []uint32
	zipf  *rand.Zipf
	wfrac float64
}

// NewZipf constructs a Zipf generator over ws lines at base with skew s
// (must be > 1) and value parameter v >= 1 (1 gives the steepest head).
// The permutation and the Zipf sampler derive from seed, so a given
// profile is reproducible; note the sampler keeps its own RNG and ignores
// the *rand.Rand passed to Next except for write decisions.
func NewZipf(base, ws uint64, s, v float64, seed int64, writeFrac float64) *Zipf {
	if ws == 0 || ws > 1<<31 {
		panic(fmt.Sprintf("workload: zipf working set %d out of range", ws))
	}
	if s <= 1 {
		panic(fmt.Sprintf("workload: zipf skew %v must be > 1", s))
	}
	if v < 1 {
		panic(fmt.Sprintf("workload: zipf v %v must be >= 1", v))
	}
	checkWriteFrac(writeFrac)
	rng := rand.New(rand.NewSource(seed))
	perm32 := make([]uint32, ws)
	for i, p := range rng.Perm(int(ws)) {
		perm32[i] = uint32(p)
	}
	z := rand.NewZipf(rand.New(rand.NewSource(seed+1)), s, v, ws-1)
	return &Zipf{base: base, perm: perm32, zipf: z, wfrac: writeFrac}
}

// Name implements Generator.
func (z *Zipf) Name() string { return fmt.Sprintf("zipf(ws=%d)", len(z.perm)) }

// Next implements Generator.
func (z *Zipf) Next(r *rand.Rand) Access {
	rank := z.zipf.Uint64()
	return Access{Addr: z.base + uint64(z.perm[rank]), Write: roll(r, z.wfrac)}
}
