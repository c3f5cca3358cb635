package main

// workload layer: the cost of Generator.Next, on the traced run's own
// profiles and on each generator kind in isolation.
//
// Binds to: spec.Profile.NewGen, workload.Generator.Next, workload.New
// {Uniform,Stream,PointerChase,Stencil,HotCold,Zipf,Phased}, workload.Phase.

import (
	"math/rand"
	"time"

	wl "caer/internal/workload"
)

// probeCalls is how many calls a unit-cost loop times.
const probeCalls = 1 << 20

// sink keeps the timed calls' results alive.
var sink uint64

// nextNs times n Next calls of g.
func nextNs(g wl.Generator, seed int64, n int) float64 {
	r := rand.New(rand.NewSource(seed))
	var acc uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		acc += g.Next(r).Addr
	}
	d := time.Since(t0)
	sink += acc
	return float64(d.Nanoseconds()) / float64(n)
}

// probeWorkload fills the workload.* metrics: the reference count from the
// wrappers and the per-call cost of a fresh, unwrapped generator of each
// profile, weighted by how often the traced run called it.
func probeWorkload(tr *tracer, e *env, wallS float64, m metrics) {
	seed := e.seed
	calls := tr.totalCalls()
	var busyNs float64
	for _, pc := range tr.profs {
		if pc.calls == 0 {
			continue
		}
		n := e.n(probeCalls)
		if pc.calls < uint64(n) {
			n = int(pc.calls)
		}
		busyNs += float64(pc.calls) * nextNs(pc.prof.NewGen(0, seed), seed, n)
	}
	m["workload.next_calls"] = float64(calls)
	if calls > 0 {
		m["workload.next_ns"] = busyNs / float64(calls)
	}
	m["workload.busy_share"] = busyNs / 1e9 / wallS

	const ws = 4096
	kinds := map[string]wl.Generator{
		"uniform": wl.NewUniform(0, ws, 0.1),
		"stream":  wl.NewStream(0, ws, 1, 0.1),
		"chase":   wl.NewPointerChase(0, ws, seed, 0.1),
		"stencil": wl.NewStencil(0, 192, 4, 0.1),
		"hotcold": wl.NewHotCold(wl.NewUniform(0, 512, 0.1), wl.NewUniform(1<<16, ws, 0.1), 0.9),
		"zipf":    wl.NewZipf(0, ws, 1.2, 1, seed, 0.1),
		"phased": wl.NewPhased([]wl.Phase{
			{Gen: wl.NewStream(0, ws, 1, 0.1), Duration: 50_000},
			{Gen: wl.NewUniform(0, ws, 0.1), Duration: 50_000},
		}),
	}
	for k, g := range kinds {
		m["workload.next_ns."+k] = nextNs(g, seed, e.n(probeCalls/4))
	}
}
