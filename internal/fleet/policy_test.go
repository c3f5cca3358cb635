package fleet

import (
	"testing"

	"caer/internal/sched"
)

func view(free, queued int, sens, press, load float64) NodeView {
	return NodeView{View: sched.View{
		FreeCores: free, Queued: queued,
		Sensitivity: sens, Pressure: press, BatchLoad: load,
	}}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{
		PolicyRoundRobin:    "round-robin",
		PolicyLeastPressure: "least-pressure",
		PolicyPacked:        "packed",
		PolicyTelemetry:     "telemetry",
		Policy(9):           "Policy(9)",
		Policy(-1):          "Policy(-1)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	// Every policy parses back from its full name and from its flag name.
	for flag, want := range map[string]Policy{
		"rr": PolicyRoundRobin, "lp": PolicyLeastPressure, "packed": PolicyPacked, "telemetry": PolicyTelemetry,
	} {
		for _, s := range []string{flag, want.String()} {
			if got, err := ParsePolicy(s); err != nil || got != want {
				t.Errorf("ParsePolicy(%q) = %v, %v, want %v", s, got, err, want)
			}
		}
	}
	if _, err := ParsePolicy("fifo"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}

// pick is one decision in a policy's table: the cluster's picker is asked
// to dispatch over views and must answer want; commit says the dispatch
// went through.
type pick struct {
	why    string
	views  []NodeView
	want   int
	commit bool
}

// runPicks drives one picker of the policy through the table in order.
func runPicks(t *testing.T, pol Policy, picks []pick) {
	t.Helper()
	picker, set := newPicker(pol, nil)
	for i, p := range picks {
		set.views = p.views
		got := picker.Pick(set)
		if got != p.want {
			t.Fatalf("%s, pick %d (%s) = %d, want %d", pol, i, p.why, got, p.want)
		}
		if p.commit {
			picker.Commit(got)
		}
	}
}

// TestRoundRobinPlacerRotates pins rotation across eligible machines and
// skipping of saturated ones.
func TestRoundRobinPlacerRotates(t *testing.T) {
	idle, saturated := view(4, 0, 0, 0, 0), view(2, 2, 0, 0, 0)
	all := []NodeView{idle, idle, idle}
	runPicks(t, PolicyRoundRobin, []pick{
		{"rotation", all, 0, true},
		{"rotation", all, 1, true},
		{"rotation", all, 2, true},
		{"rotation wraps", all, 0, true},
		{"a machine whose queue matches its free cores is skipped", []NodeView{idle, saturated, idle}, 2, false},
		{"no eligible machine: park in the fleet queue", []NodeView{view(1, 1, 0, 0, 0), view(0, 0, 0, 0, 0)}, -1, false},
	})
}

// TestLeastPressurePlacerAvoidsSensitiveMachines pins the core gate
// behaviour: an aggressive job goes to the machine with the least
// (sensitivity+pressure) exposure, ties broken toward the lower index.
func TestLeastPressurePlacerAvoidsSensitiveMachines(t *testing.T) {
	hot, cool := view(4, 0, 1.8, 0.7, 0), view(4, 0, 0.2, 0.1, 0) // sensitive service; insensitive one
	hot.Aggr, cool.Aggr = 0.9, 0.9
	coolSaturated := cool
	coolSaturated.FreeCores, coolSaturated.Queued = 2, 2
	runPicks(t, PolicyLeastPressure, []pick{
		{"the aggressor goes to the cool machine", []NodeView{hot, cool}, 1, true},
		{"resident batch load breaks ties away from crowded machines",
			[]NodeView{view(4, 0, 0.5, 0.2, 2.0), view(4, 0, 0.5, 0.2, 0.5)}, 1, false},
		{"exact ties break toward the lower index", []NodeView{cool, cool}, 0, false},
		{"cool machine saturated: the only eligible one takes the job", []NodeView{hot, coolSaturated}, 0, false},
	})
}

func TestPackedPlacerFillsInOrder(t *testing.T) {
	views := []NodeView{view(1, 1, 0, 0, 0), view(3, 0, 0, 0, 0), view(4, 0, 0, 0, 0)}
	runPicks(t, PolicyPacked, []pick{
		{"first eligible", views, 1, true},
		{"still the first eligible: Commit moves nothing", views, 1, false},
	})
}

// TestTelemetryPlacerScoresScrapedViews pins what PolicyTelemetry adds to
// least-pressure: a fresh scrape outvotes the synchronous view, a firing
// alert repels work outright, and a stale machine falls back to its
// synchronous score.
func TestTelemetryPlacerScoresScrapedViews(t *testing.T) {
	// Synchronously machine 0 looks cheaper; its scrape says otherwise.
	a, b := view(4, 0, 0.2, 0.1, 0), view(4, 0, 0.5, 0.2, 0)
	a.Tel = TelView{Fresh: true, Sensitivity: 1.5, Pressure: 0.6}
	b.Tel = TelView{Fresh: true, Sensitivity: 0.3, Pressure: 0.1}
	burning := b
	burning.Tel.Burning = 1
	stale := a
	stale.Tel.Fresh = false
	runPicks(t, PolicyTelemetry, []pick{
		{"fresh scrapes decide", []NodeView{a, b}, 1, false},
		{"a firing alert outweighs any pressure difference", []NodeView{a, burning}, 0, false},
		{"a stale machine is scored synchronously", []NodeView{stale, b}, 0, false},
	})
	runPicks(t, PolicyLeastPressure, []pick{
		{"least-pressure never reads the scrape", []NodeView{a, b}, 0, false},
	})
}

// TestPlacersAllocationFree pins the dispatch-scan contract: Pick runs on
// the per-period hot path and must not allocate.
func TestPlacersAllocationFree(t *testing.T) {
	views := []NodeView{view(4, 1, 0.5, 0.2, 1.0), view(3, 0, 1.0, 0.4, 0.2)}
	views[1].Tel.Fresh = true
	for _, pol := range []Policy{PolicyRoundRobin, PolicyLeastPressure, PolicyPacked, PolicyTelemetry} {
		picker, set := newPicker(pol, views)
		if n := testing.AllocsPerRun(100, func() { picker.Commit(picker.Pick(set)) }); n != 0 {
			t.Errorf("%s Pick allocates %v/op", pol, n)
		}
	}
}
