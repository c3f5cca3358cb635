package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// The suite is a pure function of the seed (pinned by
// TestFleetRegimeSuiteDeterministic), so one quick-mode execution serves
// both the gate assertions and the determinism baseline.
var (
	fleetQuickOnce sync.Once
	fleetQuickRun  FleetRegime
)

func fleetQuick() FleetRegime {
	fleetQuickOnce.Do(func() { fleetQuickRun = FleetSuite(1, true) })
	return fleetQuickRun
}

// TestFleetRegimeSuite is the fleet ISSUE's headline acceptance check:
// least-pressure cross-machine placement must strictly beat round-robin on
// the sensitive service's p99 request latency at equal admitted throughput,
// deterministic per seed — the gate caer-bench -fleet enforces.
func TestFleetRegimeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet regime suite is slow; skipped in -short")
	}
	r := fleetQuick()

	if err := r.Check(); err != nil {
		t.Fatalf("fleet gate: %v", err)
	}
	byName := map[string]FleetPolicyResult{}
	for _, p := range r.Policies {
		byName[p.Name] = p
		if p.Completed != p.Arrivals {
			t.Errorf("%s: completed %d of %d arrivals", p.Name, p.Completed, p.Arrivals)
		}
		if p.Requests == 0 || p.P50 <= 0 || p.P99 < p.P50 {
			t.Errorf("%s: degenerate sensitive-service QoS: requests %d p50 %.0f p99 %.0f",
				p.Name, p.Requests, p.P50, p.P99)
		}
	}
	rr, lp := byName["round-robin"], byName["least-pressure"]
	// The placement signature behind the gate: round-robin spreads jobs
	// over the sensitive machines (the first half), least-pressure keeps
	// nearly all of them on the background machines.
	rrSens, lpSens := 0, 0
	for k := 0; k < r.Machines/2; k++ {
		rrSens += rr.MachineDispatches[k]
		lpSens += lp.MachineDispatches[k]
	}
	if rrSens == 0 {
		t.Errorf("round-robin placed no jobs on sensitive machines: %v", rr.MachineDispatches)
	}
	if lpSens*4 >= rrSens {
		t.Errorf("least-pressure did not steer clear of sensitive machines: %d vs round-robin's %d (%v)",
			lpSens, rrSens, lp.MachineDispatches)
	}

	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if !strings.Contains(buf.String(), "least-pressure") {
		t.Errorf("rendered table missing policy rows:\n%s", buf.String())
	}

	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded FleetRegime
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if decoded.Machines != r.Machines || len(decoded.Policies) != len(r.Policies) {
		t.Errorf("artifact round-trip mismatch: %+v", decoded)
	}
	checkGolden(t, "fleet_quick", buf.Bytes())
}

// TestFleetRegimeSuiteDeterministic pins the artifact byte-for-byte across
// repeat runs and across per-machine worker-pool sizes: BENCH_fleet.json is
// a pure function of the seed.
func TestFleetRegimeSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet regime suite is slow; skipped in -short")
	}
	if raceEnabled {
		t.Skip("suite repeats exceed the race budget; internal/fleet pins repeat and worker determinism under -race")
	}
	render := func(r FleetRegime) []byte {
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	a := render(fleetQuick())
	b := render(FleetSuiteWorkers(1, true, 1))
	if !bytes.Equal(a, b) {
		t.Error("repeat run of the fleet suite produced a different artifact")
	}
	c := render(FleetSuiteWorkers(1, true, 4))
	if !bytes.Equal(a, c) {
		t.Error("Workers=4 fleet suite artifact differs from Workers=1")
	}
}
