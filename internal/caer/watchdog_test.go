package caer

import (
	"testing"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// watchdogHarness builds an engine over a table whose period clock the
// test drives by hand, with a detector/responder pair that always asserts
// contention and pauses — the worst case a dead monitor can wedge.
func watchdogHarness(t *testing.T, k int) (*Engine, *comm.Table, *comm.Slot) {
	t.Helper()
	tab := comm.NewTable(8)
	nbr := tab.Register("lat", comm.RoleLatency)
	own := tab.Register("batch", comm.RoleBatch)
	det := &scriptDetector{dirs: []comm.Directive{comm.DirectiveRun}, verdicts: []Verdict{VerdictContention}}
	resp := &scriptResponder{dir: comm.DirectivePause, length: 4, holdDir: comm.DirectivePause}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	e.SetWatchdog(k)
	return e, tab, nbr
}

func TestWatchdogTripsAndFailsOpen(t *testing.T) {
	const k = 3
	e, tab, nbr := watchdogHarness(t, k)

	// Healthy periods: monitor publishes, engine pauses on contention.
	for p := 0; p < 5; p++ {
		tab.BumpPeriod()
		nbr.Publish(500)
		e.Tick(100)
	}
	if e.Degraded() {
		t.Fatal("engine degraded while the monitor was live")
	}

	// The monitor dies. The engine may keep pausing only until the
	// staleness horizon; from then on every directive must be Run.
	pausedAfterDeath := 0
	for p := 0; p < 10; p++ {
		tab.BumpPeriod()
		wasDegraded := e.Degraded()
		d := e.Tick(100)
		if !wasDegraded && e.Degraded() && nbr.StalePeriods() < k {
			t.Errorf("watchdog tripped after %d stale periods, horizon is %d", nbr.StalePeriods(), k)
		}
		if p < k {
			if d == comm.DirectivePause {
				pausedAfterDeath++
			}
		} else if d != comm.DirectiveRun {
			t.Fatalf("stale period %d: directive %v, want fail-open run", p, d)
		}
	}
	if !e.Degraded() {
		t.Fatal("engine did not degrade after the watchdog horizon")
	}
	if pausedAfterDeath > k {
		t.Fatalf("batch paused %d periods after monitor death, horizon is %d", pausedAfterDeath, k)
	}
	st := e.Stats()
	if st.WatchdogTrips != 1 {
		t.Fatalf("WatchdogTrips = %d, want 1", st.WatchdogTrips)
	}
	if st.DegradedTicks == 0 {
		t.Fatal("DegradedTicks = 0 after degradation")
	}
}

func TestWatchdogRecoversWhenSamplesResume(t *testing.T) {
	const k = 3
	e, tab, nbr := watchdogHarness(t, k)
	rec := privateLane(e)

	tab.BumpPeriod()
	nbr.Publish(500)
	e.Tick(100)

	// Kill the monitor long enough to degrade.
	trip := uint64(0)
	for p := 0; p < k+2; p++ {
		tab.BumpPeriod()
		e.Tick(100)
		if e.Degraded() && trip == 0 {
			trip = e.Stats().Periods - 1
		}
	}
	if !e.Degraded() {
		t.Fatal("engine not degraded")
	}
	if n := len(spansOf(rec, telemetry.SpanDegraded)); n != 0 {
		t.Fatalf("%d degraded spans while still degraded, want 0", n)
	}

	// Monitor revives: the first fresh sample recovers the engine and
	// detection resumes.
	tab.BumpPeriod()
	nbr.Publish(500)
	e.Tick(100)
	if e.Degraded() {
		t.Fatal("engine still degraded after samples resumed")
	}
	// Recovery closes the degraded span: it starts at the trip period and
	// ends at the recovery period.
	recovered := e.Stats().Periods - 1
	deg := spansOf(rec, telemetry.SpanDegraded)
	if len(deg) != 1 || deg[0].Start != trip || deg[0].Start+uint64(deg[0].Periods) != recovered {
		t.Fatalf("degraded spans = %+v, want one over periods [%d,%d)", deg, trip, recovered)
	}

	// And a second outage trips it again.
	for p := 0; p < k+1; p++ {
		tab.BumpPeriod()
		e.Tick(100)
	}
	if !e.Degraded() {
		t.Fatal("engine did not re-degrade on a second outage")
	}
	if st := e.Stats(); st.WatchdogTrips != 2 {
		t.Fatalf("WatchdogTrips = %d, want 2", st.WatchdogTrips)
	}
}

func TestWatchdogCutsInFlightHold(t *testing.T) {
	const k = 2
	tab := comm.NewTable(8)
	nbr := tab.Register("lat", comm.RoleLatency)
	own := tab.Register("batch", comm.RoleBatch)
	det := &scriptDetector{dirs: []comm.Directive{comm.DirectiveRun}, verdicts: []Verdict{VerdictContention}}
	// A very long pause hold: without the watchdog this wedges the batch.
	resp := &scriptResponder{dir: comm.DirectivePause, length: 1000, holdDir: comm.DirectivePause}
	e := NewEngine(det, resp, own, []*comm.Slot{nbr})
	e.SetWatchdog(k)

	tab.BumpPeriod()
	nbr.Publish(500)
	if d := e.Tick(100); d != comm.DirectivePause {
		t.Fatalf("verdict period directive = %v, want pause (hold starts)", d)
	}

	// Monitor dies mid-hold; the hold must not outlive the horizon.
	for p := 0; p < k; p++ {
		tab.BumpPeriod()
		e.Tick(100)
	}
	tab.BumpPeriod()
	if d := e.Tick(100); d != comm.DirectiveRun {
		t.Fatalf("directive after horizon = %v, want run despite the in-flight hold", d)
	}
	if !e.Degraded() {
		t.Fatal("engine not degraded despite stale hold")
	}
}

func TestWatchdogDisabledNeverDegrades(t *testing.T) {
	e, tab, _ := watchdogHarness(t, 0)
	for p := 0; p < 50; p++ {
		tab.BumpPeriod()
		e.Tick(100)
	}
	if e.Degraded() {
		t.Fatal("disabled watchdog degraded the engine")
	}
	if st := e.Stats(); st.WatchdogTrips != 0 || st.DegradedTicks != 0 {
		t.Fatalf("disabled watchdog recorded activity: %+v", st)
	}
}

func TestSetWatchdogAfterTickPanics(t *testing.T) {
	e, tab, nbr := watchdogHarness(t, 3)
	tab.BumpPeriod()
	nbr.Publish(1)
	e.Tick(1)
	defer func() {
		if recover() == nil {
			t.Error("SetWatchdog after Tick did not panic")
		}
	}()
	e.SetWatchdog(5)
}

// TestRuntimeWatchdogEndToEnd drives a whole deployment: kill the CAER-M
// monitor mid-run and check the engine fails open and the latency process
// still completes, then recovers when the monitor restarts.
func TestRuntimeWatchdogEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WatchdogPeriods = 10
	m := machine.New(machine.Config{Cores: 2})
	rt := NewRuntime(m, HeuristicRule, cfg)
	lat, _ := spec.ByName("mcf")
	lat.Exec.Instructions /= 64
	latProc := lat.NewProcess(0, 1)
	rt.AddLatency("mcf", 0, latProc)
	rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, 2))

	// Warm up with the monitor alive.
	for i := 0; i < 200 && !latProc.Done(); i++ {
		rt.Step()
	}
	eng := rt.Engines()[0]

	// Crash the monitor: within the horizon the engine must degrade, and
	// while degraded it must emit run every period.
	rt.Monitors()[0].SetDown(true)
	for i := 0; i < cfg.WatchdogPeriods+2; i++ {
		rt.Step()
	}
	if !eng.Degraded() {
		t.Fatal("engine not degraded after monitor crash")
	}
	for i := 0; i < 20; i++ {
		rt.Step()
		if d := eng.Directive(); d != comm.DirectiveRun {
			t.Fatalf("degraded engine emitted %v", d)
		}
	}

	// Restart the monitor: the engine recovers on the next fresh sample.
	rt.Monitors()[0].SetDown(false)
	rt.Step()
	if eng.Degraded() {
		t.Fatal("engine still degraded after monitor restart")
	}

	// The run must still finish.
	rt.RunUntil(latProc.Done, 10_000_000)
	if !latProc.Done() {
		t.Fatal("latency process never completed")
	}
	if st := eng.Stats(); st.WatchdogTrips == 0 {
		t.Fatal("watchdog never tripped end to end")
	}
	if m.ReadCounter(0, pmu.EventInstrRetired) == 0 {
		t.Fatal("latency core retired no instructions")
	}
}
