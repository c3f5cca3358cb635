// Package workload provides synthetic memory-reference-stream generators
// that stand in for the SPEC CPU2006 binaries of the paper's evaluation.
//
// Each generator emits a deterministic (seeded) stream of line-granular
// addresses. Benchmark profiles in internal/spec compose these primitives —
// streaming sweeps, uniform random references, pointer chases, multi-array
// stencils, hot/cold mixtures, and phase sequences — to reproduce the
// qualitative cache behaviour of each paper benchmark: working-set size
// relative to the cache hierarchy, access locality, and the LLC-miss phases
// visible in the paper's Figure 3.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Access is one memory reference at line granularity.
type Access struct {
	Addr  uint64
	Write bool
}

// Generator produces an infinite reference stream. Next may use r for any
// stochastic choices; given the same r state and call sequence the stream is
// deterministic.
type Generator interface {
	// Next returns the next reference.
	Next(r *rand.Rand) Access
	// Name describes the generator for logs and tests.
	Name() string
}

// Resetter is implemented by generators whose position can be rewound to
// the initial state (used when a process is relaunched).
type Resetter interface {
	Reset()
}

// Reset rewinds g if it supports resetting; composite generators propagate
// the reset to their children.
func Reset(g Generator) {
	if r, ok := g.(Resetter); ok {
		r.Reset()
	}
}

// Stream sweeps sequentially over a working set of ws lines starting at
// base, with the given stride, wrapping around — the access pattern of
// lbm-style structured-grid codes that march over large arrays.
type Stream struct {
	base   uint64
	ws     uint64
	stride uint64
	pos    uint64
	wfrac  float64
}

// NewStream constructs a streaming generator. ws and stride must be
// positive; writeFrac in [0,1] is the fraction of references that write.
func NewStream(base, ws, stride uint64, writeFrac float64) *Stream {
	if ws == 0 {
		panic("workload: stream working set must be positive")
	}
	if stride == 0 {
		panic("workload: stream stride must be positive")
	}
	checkWriteFrac(writeFrac)
	return &Stream{base: base, ws: ws, stride: stride, wfrac: writeFrac}
}

// Name implements Generator.
func (s *Stream) Name() string { return fmt.Sprintf("stream(ws=%d,stride=%d)", s.ws, s.stride) }

// Next implements Generator.
func (s *Stream) Next(r *rand.Rand) Access {
	a := Access{Addr: s.base + s.pos, Write: roll(r, s.wfrac)}
	if s.pos += s.stride; s.pos >= s.ws { // (pos + stride) % ws, dividing once per wrap
		s.pos %= s.ws
	}
	return a
}

// Reset implements Resetter.
func (s *Stream) Reset() { s.pos = 0 }

// Uniform references lines uniformly at random within [base, base+ws) —
// the pattern of hash-table- and graph-heavy codes (mcf-like) with poor
// locality across a large footprint.
type Uniform struct {
	base  uint64
	ws    uint64
	bound uint64 // rand.Int63n(ws)'s rejection bound: draws above it are redrawn
	wfrac float64
}

// NewUniform constructs a uniform-random generator over ws lines at base;
// ws must be in [1, 2⁶³).
func NewUniform(base, ws uint64, writeFrac float64) *Uniform {
	if ws == 0 || ws >= 1<<63 {
		panic(fmt.Sprintf("workload: uniform working set %d out of [1,2^63)", ws))
	}
	checkWriteFrac(writeFrac)
	bound := math.MaxInt64 - (1<<63)%ws // 2⁶³-1 for a power of two: nothing is redrawn
	return &Uniform{base: base, ws: ws, bound: bound, wfrac: writeFrac}
}

// Name implements Generator.
func (u *Uniform) Name() string { return fmt.Sprintf("uniform(ws=%d)", u.ws) }

// Next implements Generator. It makes the r.Int63 calls r.Int63n(ws)
// makes and returns the same line, with the bound computed once.
func (u *Uniform) Next(r *rand.Rand) Access {
	v := uint64(r.Int63())
	if u.ws&(u.ws-1) == 0 { // Int63n's mask path
		v &= u.ws - 1
	} else {
		for v > u.bound {
			v = uint64(r.Int63())
		}
		v %= u.ws
	}
	return Access{Addr: u.base + v, Write: roll(r, u.wfrac)}
}

// PointerChase walks a fixed random permutation cycle over ws lines — the
// dependent-load pattern of linked-structure traversals. The permutation is
// built once from seed so every run of a profile sees the same chain.
type PointerChase struct {
	base  uint64
	next  []uint32
	cur   uint32
	wfrac float64
}

// NewPointerChase constructs a chase over ws lines (ws must fit in uint32).
func NewPointerChase(base, ws uint64, seed int64, writeFrac float64) *PointerChase {
	if ws == 0 || ws > 1<<31 {
		panic(fmt.Sprintf("workload: pointer chase working set %d out of range", ws))
	}
	checkWriteFrac(writeFrac)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(int(ws))
	// Build a single cycle: perm[i] -> perm[(i+1) % ws].
	next := make([]uint32, ws)
	for i := 0; i < int(ws); i++ {
		next[perm[i]] = uint32(perm[(i+1)%int(ws)])
	}
	return &PointerChase{base: base, next: next, wfrac: writeFrac}
}

// Name implements Generator.
func (p *PointerChase) Name() string { return fmt.Sprintf("chase(ws=%d)", len(p.next)) }

// Next implements Generator.
func (p *PointerChase) Next(r *rand.Rand) Access {
	a := Access{Addr: p.base + uint64(p.cur), Write: roll(r, p.wfrac)}
	p.cur = p.next[p.cur]
	return a
}

// Reset implements Resetter.
func (p *PointerChase) Reset() { p.cur = 0 }

// Stencil interleaves sequential sweeps over several disjoint arrays, the
// pattern of dense numerical kernels (milc/gromacs-like): array k is read
// at offset i, producing bursts of spatial locality across k streams.
type Stencil struct {
	bases []uint64
	ws    uint64
	pos   uint64
	arr   int
	wfrac float64
}

// NewStencil constructs a stencil over `arrays` arrays of ws lines each,
// laid out contiguously from base.
func NewStencil(base, ws uint64, arrays int, writeFrac float64) *Stencil {
	if ws == 0 {
		panic("workload: stencil working set must be positive")
	}
	if arrays <= 0 {
		panic("workload: stencil needs at least one array")
	}
	checkWriteFrac(writeFrac)
	bases := make([]uint64, arrays)
	for i := range bases {
		bases[i] = base + uint64(i)*ws
	}
	return &Stencil{bases: bases, ws: ws, wfrac: writeFrac}
}

// Name implements Generator.
func (s *Stencil) Name() string {
	return fmt.Sprintf("stencil(arrays=%d,ws=%d)", len(s.bases), s.ws)
}

// Next implements Generator.
func (s *Stencil) Next(r *rand.Rand) Access {
	a := Access{Addr: s.bases[s.arr] + s.pos, Write: roll(r, s.wfrac)}
	s.arr++
	if s.arr == len(s.bases) {
		s.arr = 0
		if s.pos++; s.pos == s.ws { // pos < ws, so this is (pos + 1) % ws
			s.pos = 0
		}
	}
	return a
}

// Reset implements Resetter.
func (s *Stencil) Reset() { s.pos, s.arr = 0, 0 }

// HotCold sends hotFrac of references to a small hot set and the rest to a
// large cold set — the pattern of codes with a tight kernel plus occasional
// large-table lookups (h264ref/perlbench-like).
type HotCold struct {
	hot     Generator
	cold    Generator
	hotFrac float64
}

// NewHotCold composes hot and cold generators. hotFrac must be in [0,1].
func NewHotCold(hot, cold Generator, hotFrac float64) *HotCold {
	if hotFrac < 0 || hotFrac > 1 {
		panic("workload: hotFrac out of [0,1]")
	}
	if hot == nil || cold == nil {
		panic("workload: HotCold requires both generators")
	}
	return &HotCold{hot: hot, cold: cold, hotFrac: hotFrac}
}

// Name implements Generator.
func (h *HotCold) Name() string {
	return fmt.Sprintf("hotcold(%.2f,%s,%s)", h.hotFrac, h.hot.Name(), h.cold.Name())
}

// Next implements Generator.
func (h *HotCold) Next(r *rand.Rand) Access {
	if roll(r, h.hotFrac) {
		return h.hot.Next(r)
	}
	return h.cold.Next(r)
}

// Reset implements Resetter.
func (h *HotCold) Reset() {
	Reset(h.hot)
	Reset(h.cold)
}

func roll(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func checkWriteFrac(f float64) {
	if f < 0 || f > 1 {
		panic(fmt.Sprintf("workload: write fraction %v out of [0,1]", f))
	}
}
