package main

// mem layer: the recorded reference stream replayed through a fresh
// hierarchy for the cost of one access, per-level hit shares and eviction
// counts, plus each level's path in isolation. Where the machines are
// reachable from outside (the fleets) their own counters are exact and the
// cost of an access is the level costs weighted by the real hit shares:
// the recorder cannot see which core of which node a job's stream ran on,
// so a replay would mix streams that never shared a cache.
//
// Binds to: mem.{NewHierarchy,DefaultHierarchyConfig}, Hierarchy.{Access,
// Cores,L1,L2,L3}, Cache.Stats, CacheStats.{Accesses,Hits,Misses,Evictions,
// CrossEvictions,Invalidations}.

import (
	"math/rand"
	"time"

	"caer/internal/mem"
)

// replayCyclesPerRef spaces replayed references in simulated time, so the
// memory channel queues as it would under a core issuing them.
const replayCyclesPerRef = 30

// levelStats sums the per-level cache counters of some hierarchies.
type levelStats struct {
	l1, l2, l3 mem.CacheStats
}

func addStats(a *mem.CacheStats, b mem.CacheStats) {
	a.Accesses += b.Accesses
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Evictions += b.Evictions
	a.CrossEvictions += b.CrossEvictions
	a.Invalidations += b.Invalidations
}

func (s *levelStats) add(h *mem.Hierarchy) {
	for c := 0; c < h.Cores(); c++ {
		addStats(&s.l1, h.L1(c).Stats())
		addStats(&s.l2, h.L2(c).Stats())
	}
	addStats(&s.l3, h.L3().Stats())
}

// conserved reports whether every level's hits and misses add up.
func (s levelStats) conserved() bool {
	ok := func(c mem.CacheStats) bool { return c.Hits+c.Misses == c.Accesses }
	return ok(s.l1) && ok(s.l2) && ok(s.l3)
}

// replay runs the recorded segments through fresh hierarchies and returns
// the nanoseconds per access and the level counters they produced.
func replay(segs []*segment) (nsPerAccess float64, replayed int, st levelStats) {
	var total time.Duration
	for _, seg := range segs {
		if seg.n == 0 {
			continue
		}
		h := mem.NewHierarchy(mem.DefaultHierarchyConfig(seg.cores))
		var now, acc uint64
		t0 := time.Now()
		for _, r := range seg.refs[:seg.n] {
			acc += h.Access(int(r.core), r.addr, r.write, now).Latency
			now += replayCyclesPerRef
		}
		total += time.Since(t0)
		sink += acc
		replayed += seg.n
		st.add(h)
	}
	if replayed > 0 {
		nsPerAccess = float64(total.Nanoseconds()) / float64(replayed)
	}
	return nsPerAccess, replayed, st
}

// Line counts whose cyclic sweep is served by exactly one level of the
// default hierarchy (L1 128, L2 1024, L3 8192 lines): LRU evicts a line
// of a larger sweep just before it comes round again.
const (
	l1Lines  = 64
	l2Lines  = 512
	l3Lines  = 4096
	memLines = 1 << 16
)

// accessLoopNs times n accesses of core 0 cycling over `lines` lines in a
// fixed shuffled order: every line still comes round after all the others,
// but consecutive accesses land in unrelated sets, as a workload's do.
func accessLoopNs(lines int, n int) float64 {
	h := mem.NewHierarchy(mem.DefaultHierarchyConfig(2))
	order := rand.New(rand.NewSource(1)).Perm(lines)
	for i, a := range order {
		h.Access(0, uint64(a), false, uint64(i))
	}
	var acc uint64
	t0 := time.Now()
	for i, k := 0, 0; i < n; i++ {
		acc += h.Access(0, uint64(order[k]), false, uint64(i)*replayCyclesPerRef).Latency
		if k++; k == lines {
			k = 0
		}
	}
	d := time.Since(t0)
	sink += acc
	return float64(d.Nanoseconds()) / float64(n)
}

// modelNs is the cost of an access as the four level costs weighted by the
// hit shares of st.
func modelNs(m metrics, st levelStats) float64 {
	a := float64(st.l1.Accesses)
	l1, l2, l3 := float64(st.l1.Hits)/a, float64(st.l2.Hits)/a, float64(st.l3.Hits)/a
	return l1*m["mem.l1_hit_ns"] + l2*m["mem.l2_hit_ns"] + l3*m["mem.l3_hit_ns"] +
		(1-l1-l2-l3)*m["mem.l3_miss_insert_ns"]
}

// modelError is how far modelNs runs off a real stream: the replayed cost
// of the workload's own pair on a two-core machine over the model's cost at
// that replay's hit shares. The level sweeps are one core reading; a real
// stream writes, shares the L3 and back-invalidates, so the ratio is above 1.
func modelError(w workload, e *env, m metrics) float64 {
	rec := newTracer(e.seed)
	rec.segCap = recordCap / 8
	lat, batch := w.pair(&env{seed: e.seed, scale: e.scale, tr: rec})
	pm := pairMachine(lat, batch, e.seed)
	for seg := rec.segs[0]; seg.n < len(seg.refs) && pm.Periods() < probePeriods; {
		pm.RunPeriod()
	}
	ns, replayed, st := replay(rec.segs)
	if replayed == 0 {
		return 1
	}
	return ns / modelNs(m, st)
}

// probeMem fills the mem.* metrics. real, when the workload's machines are
// reachable from outside (the fleets), supplies the exact level counters;
// otherwise the replayed prefix does.
func probeMem(w workload, tr *tracer, e *env, real *levelStats, wallS float64, m metrics, out *repOut) {
	m["mem.l1_hit_ns"] = accessLoopNs(l1Lines, e.n(probeCalls))
	m["mem.l2_hit_ns"] = accessLoopNs(l2Lines, e.n(probeCalls))
	m["mem.l3_hit_ns"] = accessLoopNs(l3Lines, e.n(probeCalls))
	m["mem.l3_miss_insert_ns"] = accessLoopNs(memLines, e.n(probeCalls))

	ns, replayed, st := replay(tr.segs)
	out.check("mem/conservation/replay", replayed == 0 || st.conserved())
	if real != nil {
		out.check("mem/conservation/machines", real.conserved())
		st = *real
	}
	a := float64(st.l1.Accesses)
	if a == 0 {
		return
	}
	if real != nil {
		ns = modelNs(m, st) * modelError(w, e, m)
	}
	accesses := float64(tr.totalCalls())
	m["mem.accesses"] = accesses
	m["mem.access_ns"] = ns
	m["mem.busy_share"] = accesses * ns / 1e9 / wallS
	m["mem.l1_hit_share"], m["mem.l2_hit_share"], m["mem.l3_hit_share"] = float64(st.l1.Hits)/a, float64(st.l2.Hits)/a, float64(st.l3.Hits)/a
	m["mem.l3_evictions"] = float64(st.l3.Evictions)
	m["mem.l3_cross_evictions"] = float64(st.l3.CrossEvictions)
	m["mem.back_invalidations"] = float64(st.l1.Invalidations + st.l2.Invalidations)
}
