package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func testRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestStreamSweepsAndWraps(t *testing.T) {
	s := NewStream(100, 4, 1, 0)
	r := testRNG()
	want := []uint64{100, 101, 102, 103, 100, 101}
	for i, w := range want {
		if got := s.Next(r).Addr; got != w {
			t.Errorf("access %d addr = %d, want %d", i, got, w)
		}
	}
}

func TestStreamStride(t *testing.T) {
	s := NewStream(0, 8, 3, 0)
	r := testRNG()
	want := []uint64{0, 3, 6, 1, 4, 7, 2, 5, 0}
	for i, w := range want {
		if got := s.Next(r).Addr; got != w {
			t.Errorf("access %d addr = %d, want %d", i, got, w)
		}
	}
}

func TestStreamReset(t *testing.T) {
	s := NewStream(0, 10, 1, 0)
	r := testRNG()
	s.Next(r)
	s.Next(r)
	Reset(s)
	if got := s.Next(r).Addr; got != 0 {
		t.Errorf("after Reset addr = %d, want 0", got)
	}
}

func TestStreamWriteFraction(t *testing.T) {
	s := NewStream(0, 100, 1, 1)
	r := testRNG()
	if !s.Next(r).Write {
		t.Error("writeFrac=1 produced a read")
	}
	s2 := NewStream(0, 100, 1, 0)
	if s2.Next(r).Write {
		t.Error("writeFrac=0 produced a write")
	}
}

func TestGeneratorConstructorValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("stream ws=0", func() { NewStream(0, 0, 1, 0) })
	mustPanic("stream stride=0", func() { NewStream(0, 4, 0, 0) })
	mustPanic("stream wfrac", func() { NewStream(0, 4, 1, 1.5) })
	mustPanic("uniform ws=0", func() { NewUniform(0, 0, 0) })
	mustPanic("uniform ws=2^63", func() { NewUniform(0, 1<<63, 0) })
	mustPanic("uniform ws=2^64-1", func() { NewUniform(0, math.MaxUint64, 0) })
	mustPanic("chase ws=0", func() { NewPointerChase(0, 0, 1, 0) })
	mustPanic("stencil ws=0", func() { NewStencil(0, 0, 2, 0) })
	mustPanic("stencil arrays=0", func() { NewStencil(0, 4, 0, 0) })
	mustPanic("hotcold frac", func() { NewHotCold(NewStream(0, 1, 1, 0), NewStream(0, 1, 1, 0), 2) })
	mustPanic("hotcold nil", func() { NewHotCold(nil, NewStream(0, 1, 1, 0), 0.5) })
	mustPanic("phased empty", func() { NewPhased(nil) })
	mustPanic("phased zero duration", func() {
		NewPhased([]Phase{{Gen: NewStream(0, 1, 1, 0), Duration: 0}})
	})
	mustPanic("phased nil gen", func() { NewPhased([]Phase{{Gen: nil, Duration: 1}}) })
}

// TestGeneratorsMatchDivisionForms pins the generators that avoid a
// division per reference to the forms that divide: Uniform draws exactly
// what r.Int63n(ws) and the write roll draw on a twin RNG, and Stream and
// Stencil step as (pos + stride) % ws and (pos + 1) % ws.
func TestGeneratorsMatchDivisionForms(t *testing.T) {
	const draws = 10000
	for _, ws := range []uint64{1, 2, 3, 320, 448, 1024, 5120, 1<<40 + 1, 1<<62 + 1, 1<<63 - 1} {
		const f = 0.3
		u, r, twin := NewUniform(7, ws, f), testRNG(), testRNG()
		// [0, max] holds whole ranges of ws draws, and one more would pass 2⁶³.
		if n := u.bound + 1; n%ws != 0 || n+ws <= 1<<63 {
			t.Fatalf("uniform ws=%d: rejection bound %d is not Int63n's", ws, u.bound)
		}
		for i := 0; i < draws; i++ {
			got := u.Next(r)
			want := Access{Addr: 7 + uint64(twin.Int63n(int64(ws))), Write: twin.Float64() < f}
			if got != want {
				t.Fatalf("uniform ws=%d draw %d = %+v, Int63n form %+v", ws, i, got, want)
			}
		}
	}
	for _, c := range []struct{ ws, stride uint64 }{
		{1, 1}, {5, 3}, {448, 1}, {8, 8}, {8, 13}, {7, 100}, {1000, math.MaxUint64}, {3, 1 << 63},
	} {
		s, r := NewStream(0, c.ws, c.stride, 0), testRNG()
		var pos uint64
		for i := 0; i < draws; i++ {
			if got := s.Next(r).Addr; got != pos {
				t.Fatalf("stream ws=%d stride=%d step %d = %d, %% form %d", c.ws, c.stride, i, got, pos)
			}
			pos = (pos + c.stride) % c.ws
		}
	}
	for _, ws := range []uint64{1, 2, 5, 448} {
		const arrays = 3
		s, r := NewStencil(0, ws, arrays, 0), testRNG()
		var pos uint64
		for i := 0; i < draws; i++ {
			arr := uint64(i % arrays)
			if got := s.Next(r).Addr; got != arr*ws+pos {
				t.Fatalf("stencil ws=%d step %d = %d, %% form %d", ws, i, got, arr*ws+pos)
			}
			if arr == arrays-1 {
				pos = (pos + 1) % ws
			}
		}
	}
}

func TestUniformStaysInRange(t *testing.T) {
	u := NewUniform(1000, 50, 0.3)
	r := testRNG()
	for i := 0; i < 5000; i++ {
		a := u.Next(r)
		if a.Addr < 1000 || a.Addr >= 1050 {
			t.Fatalf("addr %d outside [1000,1050)", a.Addr)
		}
	}
}

func TestUniformDeterministicGivenSeed(t *testing.T) {
	u1, u2 := NewUniform(0, 100, 0.5), NewUniform(0, 100, 0.5)
	r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		if u1.Next(r1) != u2.Next(r2) {
			t.Fatal("same-seed uniform streams diverged")
		}
	}
}

func TestPointerChaseVisitsEveryLineOncePerCycle(t *testing.T) {
	const ws = 64
	p := NewPointerChase(500, ws, 3, 0)
	r := testRNG()
	seen := make(map[uint64]int)
	for i := 0; i < ws; i++ {
		seen[p.Next(r).Addr]++
	}
	if len(seen) != ws {
		t.Fatalf("one cycle visited %d distinct lines, want %d", len(seen), ws)
	}
	for addr, n := range seen {
		if n != 1 {
			t.Errorf("line %d visited %d times in one cycle", addr, n)
		}
		if addr < 500 || addr >= 500+ws {
			t.Errorf("line %d outside working set", addr)
		}
	}
	// Second cycle revisits the same sequence.
	first := p.Next(r).Addr
	Reset(p)
	if got := p.Next(r).Addr; got != first-0 && got != 500+0 {
		// After reset the chase restarts at index 0.
		if got != 500 {
			t.Errorf("after Reset first addr = %d, want 500", got)
		}
	}
}

func TestStencilInterleavesArrays(t *testing.T) {
	s := NewStencil(0, 10, 3, 0)
	r := testRNG()
	want := []uint64{0, 10, 20, 1, 11, 21}
	for i, w := range want {
		if got := s.Next(r).Addr; got != w {
			t.Errorf("access %d addr = %d, want %d", i, got, w)
		}
	}
	Reset(s)
	if got := s.Next(r).Addr; got != 0 {
		t.Errorf("after Reset addr = %d, want 0", got)
	}
}

func TestHotColdSplit(t *testing.T) {
	hot := NewUniform(0, 10, 0)
	cold := NewUniform(10000, 10, 0)
	hc := NewHotCold(hot, cold, 0.9)
	r := testRNG()
	hots := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if hc.Next(r).Addr < 10 {
			hots++
		}
	}
	frac := float64(hots) / n
	if frac < 0.87 || frac > 0.93 {
		t.Errorf("hot fraction = %v, want ~0.9", frac)
	}
}

func TestPhasedCyclesThroughPhases(t *testing.T) {
	p := NewPhased([]Phase{
		{Gen: NewStream(0, 100, 1, 0), Duration: 3},
		{Gen: NewStream(1000, 100, 1, 0), Duration: 2},
	})
	r := testRNG()
	wantRegion := []int{0, 0, 0, 1, 1, 0, 0, 0, 1, 1}
	for i, w := range wantRegion {
		a := p.Next(r)
		region := 0
		if a.Addr >= 1000 {
			region = 1
		}
		if region != w {
			t.Errorf("access %d in region %d, want %d (addr=%d)", i, region, w, a.Addr)
		}
	}
}

func TestPhasedCurrentPhaseAndReset(t *testing.T) {
	p := NewPhased([]Phase{
		{Gen: NewStream(0, 10, 1, 0), Duration: 2},
		{Gen: NewStream(100, 10, 1, 0), Duration: 2},
	})
	r := testRNG()
	if p.idx != 0 {
		t.Error("fresh phased not in phase 0")
	}
	p.Next(r)
	p.Next(r)
	if p.idx != 1 {
		t.Errorf("after phase-0 duration CurrentPhase = %d, want 1", p.idx)
	}
	p.Reset()
	if p.idx != 0 {
		t.Error("Reset did not rewind phase index")
	}
	if got := p.Next(r).Addr; got != 0 {
		t.Errorf("after Reset first addr = %d, want 0", got)
	}
}

func TestGeneratorNames(t *testing.T) {
	gens := []Generator{
		NewStream(0, 4, 1, 0),
		NewUniform(0, 4, 0),
		NewPointerChase(0, 4, 1, 0),
		NewStencil(0, 4, 2, 0),
		NewHotCold(NewStream(0, 1, 1, 0), NewStream(0, 1, 1, 0), 0.5),
		NewPhased([]Phase{{Gen: NewStream(0, 1, 1, 0), Duration: 1}}),
	}
	for _, g := range gens {
		if g.Name() == "" {
			t.Errorf("%T has empty Name", g)
		}
	}
}

// Property: every generator keeps addresses within its declared footprint.
func TestGeneratorFootprintProperty(t *testing.T) {
	f := func(seed int64, wsRaw uint16, baseRaw uint16) bool {
		ws := uint64(wsRaw%500) + 1
		base := uint64(baseRaw)
		r := rand.New(rand.NewSource(seed))
		gens := []struct {
			g      Generator
			lo, hi uint64
		}{
			{NewStream(base, ws, 1, 0.2), base, base + ws},
			{NewUniform(base, ws, 0.2), base, base + ws},
			{NewPointerChase(base, ws, seed, 0.2), base, base + ws},
			{NewStencil(base, ws, 3, 0.2), base, base + 3*ws},
		}
		for _, tc := range gens {
			for i := 0; i < 200; i++ {
				a := tc.g.Next(r)
				if a.Addr < tc.lo || a.Addr >= tc.hi {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
