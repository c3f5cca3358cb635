package sched

import "testing"

func TestInterferenceScoreOrdering(t *testing.T) {
	hot := View{FreeCores: 1, Sensitivity: 0.8, Pressure: 0.7}
	cold := View{FreeCores: 1, Sensitivity: 0.05, Pressure: 0.05}
	if Interference(hot, 0.5) <= Interference(cold, 0.5) {
		t.Error("hot domain does not score above cold domain")
	}
	// Aggressiveness widens the gap: a known aggressor pays more for the
	// hot domain than an unknown job does.
	gapAggressive := Interference(hot, 0.9) - Interference(cold, 0.9)
	gapUnknown := Interference(hot, 0) - Interference(cold, 0)
	if gapAggressive <= gapUnknown {
		t.Errorf("aggressiveness gap %v <= unknown gap %v", gapAggressive, gapUnknown)
	}
	// Resident batch load makes an otherwise-equal domain less attractive.
	crowded := cold
	crowded.BatchLoad = 2
	if Interference(crowded, 0.5) <= Interference(cold, 0.5) {
		t.Error("batch load does not penalize a crowded domain")
	}
}

// pick is one decision in a policy's table: the Picker is asked to place a
// job of aggressiveness aggr over views and must answer want; commit says
// the admission went through.
type pick struct {
	why    string
	aggr   float64
	views  []View
	want   int
	commit bool
}

// runPicks drives one Picker of the policy through the table in order.
func runPicks(t *testing.T, pol Policy, picks []pick) {
	t.Helper()
	picker := NewPicker(pol)
	for i, p := range picks {
		got := picker.Pick(&domainSet{views: p.views, aggr: p.aggr})
		if got != p.want {
			t.Fatalf("%s, pick %d (%s) = %d, want %d", pol, i, p.why, got, p.want)
		}
		if p.commit {
			picker.Commit(got)
		}
	}
}

func TestContentionPlacer(t *testing.T) {
	hot := View{FreeCores: 1, Sensitivity: 0.9, Pressure: 0.8}
	cold := View{FreeCores: 1, Sensitivity: 0.05}
	hotFull, coldFull := hot, cold
	hotFull.FreeCores, coldFull.FreeCores = 0, 0
	tied := View{FreeCores: 1, Sensitivity: 0.3}
	runPicks(t, PolicyContentionAware, []pick{
		{"the cold domain", 0.7, []View{hot, cold}, 1, true},
		{"the cold domain again: Commit moves nothing", 0.7, []View{hot, cold}, 1, false},
		{"domain 1 full", 0.7, []View{hot, coldFull}, 0, false},
		{"all domains full", 0.7, []View{hotFull, coldFull}, -1, false},
		{"exact ties break toward the lower index", 0.5, []View{tied, tied}, 0, false},
	})
}

func TestRoundRobinPlacer(t *testing.T) {
	free, full := View{FreeCores: 1}, View{}
	all := []View{free, free, free}
	runPicks(t, PolicyRoundRobin, []pick{
		{"rotation", 0, all, 0, true},
		{"rotation", 0, all, 1, true},
		{"rotation", 0, all, 2, true},
		{"rotation wraps", 0, all, 0, true},
		{"next in turn", 0, all, 1, false},
		{"no Commit (admission vetoed): the rotation does not advance", 0, all, 1, false},
		{"full domains are skipped", 0, []View{free, full, free}, 2, false},
		{"no free cores", 0, []View{full, full}, -1, false},
	})
}

func TestPackedPlacer(t *testing.T) {
	free, full := View{FreeCores: 2}, View{}
	runPicks(t, PolicyPacked, []pick{
		{"lowest domain first", 0, []View{free, free}, 0, true},
		{"still the lowest: Commit moves nothing", 0, []View{free, free}, 0, true},
		{"domain 0 full", 0, []View{full, free}, 1, false},
		{"no free cores", 0, []View{full, full}, -1, false},
	})
}

// TestPickAllocationFree pins the admission-scan contract: Pick runs on the
// per-period path whenever the queue is non-empty and must not allocate.
func TestPickAllocationFree(t *testing.T) {
	set := &domainSet{aggr: 0.7, views: []View{
		{FreeCores: 1, Sensitivity: 0.5, Pressure: 0.2, BatchLoad: 1},
		{FreeCores: 2, Sensitivity: 1.0, Pressure: 0.4},
	}}
	for _, pol := range []Policy{PolicyRoundRobin, PolicyContentionAware, PolicyPacked} {
		picker := NewPicker(pol)
		if n := testing.AllocsPerRun(100, func() { picker.Commit(picker.Pick(set)) }); n != 0 {
			t.Errorf("%s Pick allocates %v/op", pol, n)
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[Policy]string{
		PolicyRoundRobin:      "round-robin",
		PolicyContentionAware: "contention-aware",
		PolicyPacked:          "packed",
		Policy(99):            "Policy(99)",
		Policy(-1):            "Policy(-1)",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("Policy(%d).String() = %q, want %q", int(p), got, want)
		}
	}
	// Every policy parses back from its full name and from its flag name.
	for flag, want := range map[string]Policy{
		"rr": PolicyRoundRobin, "ca": PolicyContentionAware, "packed": PolicyPacked,
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
	defer func() {
		if recover() == nil {
			t.Error("NewPicker on unknown policy did not panic")
		}
	}()
	NewPicker(Policy(99))
}

func TestDecisionKindStrings(t *testing.T) {
	cases := map[DecisionKind]string{
		DecisionAdmit:    "admit",
		DecisionMigrate:  "migrate",
		DecisionComplete: "complete",
		DecisionKind(9):  "DecisionKind(9)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("DecisionKind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
