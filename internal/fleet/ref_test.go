package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"caer/internal/sched"
)

// The reference placers: the four placer types sched.Picker over a
// machineSet replaced, as they were — one type per policy behind an
// interface, each scanning a []NodeView with its own eligibility rule and
// its own copies of the two scorers. The cluster's picker is driven in
// lockstep with them below, Commit for Commit.

func refEligible(v *NodeView) bool { return v.FreeCores > v.Queued }

func refInterferenceScore(v *NodeView) float64 {
	return (v.Sensitivity+v.Pressure)*(0.4+v.Aggr) + 0.3*v.BatchLoad
}

func refTelemetryScore(v *NodeView) float64 {
	return (v.Tel.Sensitivity+v.Tel.Pressure)*(0.4+v.Aggr) +
		0.3*v.Tel.BatchLoad +
		v.Tel.LatencyP99/latencyHistMax +
		burnPenalty*float64(v.Tel.Burning)
}

type refPlacer interface {
	Name() string
	Place(views []NodeView) int
	Commit(n int)
}

func newRefPlacer(p Policy) refPlacer {
	switch p {
	case PolicyRoundRobin:
		return &roundRobinPlacer{}
	case PolicyLeastPressure:
		return &leastPressurePlacer{}
	case PolicyPacked:
		return &packedPlacer{}
	case PolicyTelemetry:
		return &telemetryPlacer{}
	default:
		panic(fmt.Sprintf("fleet: unknown policy %d", int(p)))
	}
}

// roundRobinPlacer rotates across eligible machines.
type roundRobinPlacer struct {
	next int
}

func (r *roundRobinPlacer) Name() string { return PolicyRoundRobin.String() }

func (r *roundRobinPlacer) Place(views []NodeView) int {
	n := len(views)
	for i := 0; i < n; i++ {
		k := (r.next + i) % n
		if refEligible(&views[k]) {
			return k
		}
	}
	return -1
}

func (r *roundRobinPlacer) Commit(n int) { r.next = n + 1 }

// leastPressurePlacer picks the eligible machine with the lowest predicted
// interference score; ties break toward the lower machine index for
// determinism.
type leastPressurePlacer struct{}

func (leastPressurePlacer) Name() string { return PolicyLeastPressure.String() }

func (leastPressurePlacer) Commit(n int) {}

func (leastPressurePlacer) Place(views []NodeView) int {
	best := -1
	var bestScore float64
	for k := range views {
		if !refEligible(&views[k]) {
			continue
		}
		s := refInterferenceScore(&views[k])
		if best == -1 || s < bestScore {
			best = k
			bestScore = s
		}
	}
	return best
}

// telemetryPlacer scores each eligible machine by its scraped metrics
// when fresh, falling back per machine to the synchronous least-pressure
// score when the scrape is stale past the horizon.
type telemetryPlacer struct{}

func (telemetryPlacer) Name() string { return PolicyTelemetry.String() }

func (telemetryPlacer) Commit(n int) {}

func (telemetryPlacer) Place(views []NodeView) int {
	best := -1
	var bestScore float64
	for k := range views {
		if !refEligible(&views[k]) {
			continue
		}
		var s float64
		if views[k].Tel.Fresh {
			s = refTelemetryScore(&views[k])
		} else {
			s = refInterferenceScore(&views[k])
		}
		if best == -1 || s < bestScore {
			best = k
			bestScore = s
		}
	}
	return best
}

// packedPlacer fills machine 0 first, then 1, ...
type packedPlacer struct{}

func (packedPlacer) Name() string { return PolicyPacked.String() }

func (packedPlacer) Commit(n int) {}

func (packedPlacer) Place(views []NodeView) int {
	for k := range views {
		if refEligible(&views[k]) {
			return k
		}
	}
	return -1
}

// dispatchStep is one generated dispatch decision: the machine views at
// that moment, and whether the dispatch is committed.
type dispatchStep struct {
	Views  []NodeView
	Commit bool
}

// dispatchScript is a fleet's worth of decisions over a fixed machine count.
type dispatchScript []dispatchStep

// levels are the values generated view terms take: few enough that two
// machines often score exactly equal, so the tie-break is exercised.
var levels = []float64{0, 0.125, 0.5, 0.5, 1, 1.75}

func level(r *rand.Rand) float64 { return levels[r.Intn(len(levels))] }

// randomNodeView draws a machine: often saturated (Queued >= FreeCores),
// its scrape fresh half the time, an SLO alert firing on one fresh view in
// four, and the scraped terms drawn apart from the synchronous ones so the
// two scores disagree about which machine is cheapest.
func randomNodeView(r *rand.Rand) NodeView {
	v := NodeView{
		View: sched.View{
			FreeCores: r.Intn(4), Queued: r.Intn(3),
			Sensitivity: level(r), Pressure: level(r), BatchLoad: level(r),
		},
		Aggr: level(r),
		Tel:  TelView{Age: r.Intn(100), Sensitivity: level(r), Pressure: level(r), BatchLoad: level(r)},
	}
	if v.Tel.Fresh = r.Intn(2) == 0; v.Tel.Fresh {
		v.Tel.LatencyP99 = 512 * level(r)
		if r.Intn(4) == 0 {
			v.Tel.Burning = 1 + r.Intn(2)
		}
	}
	return v
}

// Generate implements quick.Generator: 1–6 machines, up to 24 decisions; a
// machine copies its left neighbour one time in four (exact ties), and one
// decision in eight finds the whole fleet saturated.
func (dispatchScript) Generate(r *rand.Rand, size int) reflect.Value {
	machines := 1 + r.Intn(6)
	script := make(dispatchScript, 1+r.Intn(24))
	for i := range script {
		views := make([]NodeView, machines)
		saturated := r.Intn(8) == 0
		for k := range views {
			if k > 0 && r.Intn(4) == 0 {
				views[k] = views[k-1]
			} else {
				views[k] = randomNodeView(r)
			}
			if saturated {
				views[k].Queued = views[k].FreeCores
			}
		}
		script[i] = dispatchStep{Views: views, Commit: r.Intn(3) > 0}
	}
	return reflect.ValueOf(script)
}

// newPicker builds the picker and candidate set fleet.New gives a cluster
// under the policy.
func newPicker(pol Policy, views []NodeView) (sched.Picker, *machineSet) {
	return sched.NewPicker(policies[pol].pick), &machineSet{views: views, scraped: pol == PolicyTelemetry}
}

// TestPickerMatchesReferencePlacers drives the cluster's picker and the
// placer type it replaced through the same generated decisions, committing
// both when the script says the dispatch went through: the same machine
// every time. Under every policy but PolicyTelemetry the scraped view must
// be ignored even when it is fresh.
func TestPickerMatchesReferencePlacers(t *testing.T) {
	for _, pol := range []Policy{PolicyRoundRobin, PolicyLeastPressure, PolicyPacked, PolicyTelemetry} {
		prop := func(script dispatchScript) bool {
			ref := newRefPlacer(pol)
			picker, set := newPicker(pol, nil)
			for i, st := range script {
				set.views = st.Views
				want, got := ref.Place(st.Views), picker.Pick(set)
				if got != want {
					t.Logf("%s, decision %d: Pick = %d, reference Place = %d over %+v", pol, i, got, want, st.Views)
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
