package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The reference placers: the three placer types the Picker replaced, as
// they were — one type per policy behind an interface, each scanning a
// []View for domains with a free core, with their own copy of the scorer.
// The Picker is driven in lockstep with them below, so "rotation / first
// eligible / argmin over a candidate set" is pinned as the same decision
// procedure, Commit for Commit.

func refInterferenceScore(v View, aggr float64) float64 {
	return (v.Sensitivity+v.Pressure)*(0.4+aggr) + 0.3*v.BatchLoad
}

type refPlacer interface {
	Name() string
	Place(aggr float64, views []View) int
	Commit(d int)
}

func newRefPlacer(p Policy) refPlacer {
	switch p {
	case PolicyRoundRobin:
		return &roundRobinPlacer{}
	case PolicyContentionAware:
		return &contentionPlacer{}
	case PolicyPacked:
		return &packedPlacer{}
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", int(p)))
	}
}

// roundRobinPlacer rotates across eligible domains.
type roundRobinPlacer struct {
	next int
}

func (r *roundRobinPlacer) Name() string { return PolicyRoundRobin.String() }

func (r *roundRobinPlacer) Place(aggr float64, views []View) int {
	n := len(views)
	for i := 0; i < n; i++ {
		d := (r.next + i) % n
		if views[d].FreeCores > 0 {
			return d
		}
	}
	return -1
}

func (r *roundRobinPlacer) Commit(d int) { r.next = d + 1 }

// contentionPlacer picks the eligible domain with the lowest predicted
// interference score; ties break toward the lower domain index for
// determinism.
type contentionPlacer struct{}

func (contentionPlacer) Name() string { return PolicyContentionAware.String() }

func (contentionPlacer) Commit(d int) {}

func (contentionPlacer) Place(aggr float64, views []View) int {
	best := -1
	var bestScore float64
	for d := range views {
		if views[d].FreeCores == 0 {
			continue
		}
		s := refInterferenceScore(views[d], aggr)
		if best == -1 || s < bestScore {
			best = d
			bestScore = s
		}
	}
	return best
}

// packedPlacer fills domain 0 first, then 1, ...
type packedPlacer struct{}

func (packedPlacer) Name() string { return PolicyPacked.String() }

func (packedPlacer) Commit(d int) {}

func (packedPlacer) Place(aggr float64, views []View) int {
	for d := range views {
		if views[d].FreeCores > 0 {
			return d
		}
	}
	return -1
}

// pickStep is one generated admission decision: the candidate job's
// aggressiveness, the domain views at that moment, and whether the
// admission goes through (a vetoed one commits nothing).
type pickStep struct {
	Aggr   float64
	Views  []View
	Commit bool
}

// pickScript is a machine's worth of decisions over a fixed domain count.
type pickScript []pickStep

// levels are the values generated view terms take: few enough that two
// domains often score exactly equal, so the tie-break is exercised.
var levels = []float64{0, 0.125, 0.5, 0.5, 1, 1.75}

func randomView(r *rand.Rand) View {
	return View{
		FreeCores:   max(0, r.Intn(5)-1), // 0 (full) twice as likely as 1, 2, 3
		Sensitivity: levels[r.Intn(len(levels))],
		Pressure:    levels[r.Intn(len(levels))],
		BatchLoad:   levels[r.Intn(len(levels))],
	}
}

// Generate implements quick.Generator: 1–6 domains, up to 24 decisions;
// one decision in eight sees every domain full, one in eight every domain
// empty and identical (all tied), and otherwise a domain copies its left
// neighbour one time in four.
func (pickScript) Generate(r *rand.Rand, size int) reflect.Value {
	domains := 1 + r.Intn(6)
	script := make(pickScript, 1+r.Intn(24))
	for i := range script {
		views := make([]View, domains)
		shape := r.Intn(8)
		for d := range views {
			switch {
			case shape == 0:
				views[d] = randomView(r)
				views[d].FreeCores = 0
			case shape == 1:
				views[d] = View{FreeCores: 3}
			case d > 0 && r.Intn(4) == 0:
				views[d] = views[d-1]
			default:
				views[d] = randomView(r)
			}
		}
		script[i] = pickStep{Aggr: levels[r.Intn(len(levels))], Views: views, Commit: r.Intn(3) > 0}
	}
	return reflect.ValueOf(script)
}

// TestPickerMatchesReferencePlacers drives the Picker and the placer type
// it replaced through the same generated decisions, committing both when
// the script says the admission went through: the same domain every time.
func TestPickerMatchesReferencePlacers(t *testing.T) {
	for _, pol := range []Policy{PolicyRoundRobin, PolicyContentionAware, PolicyPacked} {
		prop := func(script pickScript) bool {
			ref, picker := newRefPlacer(pol), NewPicker(pol)
			for i, st := range script {
				want := ref.Place(st.Aggr, st.Views)
				got := picker.Pick(&domainSet{views: st.Views, aggr: st.Aggr})
				if got != want {
					t.Logf("%s, decision %d: Pick = %d, reference Place = %d over %+v (aggr %v)",
						pol, i, got, want, st.Views, st.Aggr)
					return false
				}
				if want >= 0 && st.Commit {
					ref.Commit(want)
					picker.Commit(got)
				}
			}
			return true
		}
		if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%s: %v", pol, err)
		}
	}
}
