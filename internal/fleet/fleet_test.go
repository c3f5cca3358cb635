package fleet_test

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"caer/internal/caer"
	"caer/internal/fleet"
	"caer/internal/machine"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// The fixtures the internal tests share (export_test.go).
var (
	prof                = fleet.Prof
	identitySchedConfig = fleet.IdentitySchedConfig
	telFleetConfig      = fleet.TelFleetConfig
)

// identityJobs is the job list shared by the fleet and sched sides of the
// byte-identity pin: small enough that every job dispatches up front
// (pre-start free batch cores = 7 on an 8-core machine with one service).
func identityJobs() []spec.Profile {
	return []spec.Profile{
		prof("lbm", 120_000), prof("povray", 120_000),
		prof("lbm", 120_000), prof("povray", 120_000),
		prof("lbm", 120_000), prof("povray", 120_000),
	}
}

func identityFleet(workers int) fleet.Config {
	return fleet.Config{
		Machines: []fleet.MachineSpec{{
			Cores: 8, Domains: 2, Workers: workers,
			Services: []fleet.Service{{Profile: prof("mcf", 400_000), Core: 0}},
		}},
		Sched:      identitySchedConfig(),
		Policy:     fleet.PolicyRoundRobin,
		Traffic:    fleet.Traffic{Curve: fleet.CurveConstant, Rate: 6, Horizon: 1, Mix: identityJobs()},
		Seed:       42,
		MaxPeriods: 30_000,
	}
}

// mustJSON marshals for byte comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestFleetMatchesRunnerScheduled is the regression pin: a 1-machine fleet
// fed the whole job list up front must reproduce sched.RunJobs — the
// closed-job-set deployment — byte-for-byte: same decision log, same
// per-job reports, same service completion period — at any worker count.
func TestFleetMatchesRunnerScheduled(t *testing.T) {
	sd, periods := sched.RunJobs(machine.Config{Cores: 8, Domains: 2}, identitySchedConfig(),
		prof("mcf", 400_000), identityJobs(), 42, 30_000)
	svc := sd.LatencyReports()[0]
	if svc.Done == 0 || svc.Done != periods {
		t.Fatalf("closed-job-set run: service done at %d, run length %d", svc.Done, periods)
	}
	wantDecisions := mustJSON(t, sd.Decisions())
	wantReports := sd.JobReports()

	for _, workers := range []int{1, 4} {
		c := fleet.New(identityFleet(workers))
		ticks := c.Run()
		node := c.Nodes()[0]

		if got := mustJSON(t, node.Sched().Decisions()); !bytes.Equal(got, wantDecisions) {
			t.Fatalf("workers=%d: fleet decision log diverges from sched.RunJobs\nfleet: %s\nsched: %s",
				workers, got, wantDecisions)
		}
		reports := node.Sched().JobReports()
		if len(reports) != len(wantReports) || len(reports) != len(identityJobs()) {
			t.Fatalf("workers=%d: %d fleet job reports vs %d", workers, len(reports), len(wantReports))
		}
		for i, jr := range reports {
			if jr != wantReports[i] {
				t.Errorf("workers=%d: job %d diverges:\nfleet: %+v\nsched: %+v", workers, i, jr, wantReports[i])
			}
			if jr.State != sched.JobDone {
				t.Errorf("workers=%d: job %d ended %v", workers, i, jr.State)
			}
		}
		if got := node.Sched().LatencyReports()[0]; got != svc {
			t.Errorf("workers=%d: service report %+v, sched.RunJobs %+v", workers, got, svc)
		}
		if uint64(ticks) < svc.Done {
			t.Errorf("workers=%d: fleet ran %d ticks, fewer than the service's %d periods", workers, ticks, svc.Done)
		}
		if rep := c.Report(); rep.Completed != len(identityJobs()) {
			t.Errorf("workers=%d: fleet completed %d of %d jobs", workers, rep.Completed, len(identityJobs()))
		}
	}
}

// mixedFleet is the benchmark's fleet_mixed shape at test scale: two small
// sensitive machines and two big background ones (8 LLC domains in all),
// metrics-fed placement, SLO engines on, fleet migration on, and a private
// span ring so the trace is the run's alone.
func mixedFleet(workers int, spans *telemetry.SpanRecorder) fleet.Config {
	machines := make([]fleet.MachineSpec, 4)
	for k := range machines {
		machines[k] = fleet.MachineSpec{Cores: 4, Domains: 2, Workers: workers,
			Services: []fleet.Service{{Profile: prof("mcf", 60_000), Core: 0, Relaunch: true}}}
		if k >= 2 {
			machines[k].Cores = 8
			machines[k].Services[0].Profile = prof("namd", 60_000)
		}
	}
	return fleet.Config{
		Machines: machines,
		Sched:    identitySchedConfig(),
		Policy:   fleet.PolicyTelemetry,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveBurst, Rate: 0.6, Horizon: 400, Jitter: 0.3,
			BurstEvery: 150, BurstLen: 25,
			Mix: []spec.Profile{prof("lbm", 60_000), prof("povray", 60_000)},
		},
		SLO:           fleet.SLOConfig{LatencyQuantile: 0.99, LatencyBound: 1024, DegradedBudget: 0.25, Window: 64},
		Seed:          7,
		MigratePeriod: 50,
		MaxPeriods:    20_000,
		Spans:         spans,
	}
}

// TestFleetDeterministicAcrossWorkers pins the cluster-level determinism
// contract on the fleet_mixed shape: the Report, every scheduler's decision
// log, the per-machine metric snapshot, the fleet event log and the Chrome
// trace are byte-identical across two identical runs and at every pool
// size — fewer workers than LLC domains, as many, and more.
func TestFleetDeterministicAcrossWorkers(t *testing.T) {
	fingerprint := func(workers int) []byte {
		var selfOps atomic.Uint64
		spans := telemetry.NewSpanRecorder(1<<16, &selfOps)
		c := fleet.New(mixedFleet(workers, spans))
		c.Run()
		rep := c.Report()
		var out bytes.Buffer
		out.Write(mustJSON(t, rep.Jobs))
		out.Write(mustJSON(t, rep.Services))
		for _, n := range c.Nodes() {
			out.Write(mustJSON(t, n.Sched().Decisions()))
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			out.Write(mustJSON(t, []float64{rep.Wait.Quantile(q), rep.Sojourn.Quantile(q)}))
		}
		// The process-global registry accumulates over the runs of one test
		// process; the machine-labelled series are this run's alone.
		var metrics bytes.Buffer
		if err := c.WriteMetrics(&metrics); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.SplitAfter(metrics.Bytes(), []byte("\n")) {
			if bytes.Contains(line, []byte(`machine="`)) {
				out.Write(line)
			}
		}
		if err := c.WriteEvents(&out); err != nil {
			t.Fatal(err)
		}
		if err := spans.WriteChrome(&out); err != nil {
			t.Fatal(err)
		}
		if spans.Dropped() > 0 {
			t.Fatalf("span ring wrapped (%d dropped): size it to hold the run", spans.Dropped())
		}
		return out.Bytes()
	}
	base := fingerprint(1)
	if again := fingerprint(1); !bytes.Equal(base, again) {
		t.Fatal("two identical Workers=1 runs diverged")
	}
	for _, workers := range []int{2, 3, 4, 16} {
		if par := fingerprint(workers); !bytes.Equal(base, par) {
			t.Fatalf("Workers=%d run diverged from Workers=1", workers)
		}
	}
}

// poolHelpers counts the stepper-pool helper goroutines in the process,
// started or not yet. (runtime.NumGoroutine would also count whatever
// earlier tests left exiting.)
func poolHelpers() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("created by caer/internal/machine.NewPool"))
}

// awaitPoolHelpers yields until n helpers are left: a helper leaves its
// range loop some time after the close that stops it returns.
func awaitPoolHelpers(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < 10_000 && poolHelpers() != n; i++ {
		runtime.Gosched()
	}
	if got := poolHelpers(); got != n {
		t.Fatalf("%d pool helper goroutines, want %d", got, n)
	}
}

// TestFleetPoolStartsAndStops pins the pool's lifecycle at the fleet level:
// a fleet of four machines at Workers = 4 parks max(Workers)-1 helper
// goroutines in total — not a pool per machine — and a caller that drives
// Tick by hand gets every one of them back by stopping any node's machine.
func TestFleetPoolStartsAndStops(t *testing.T) {
	awaitPoolHelpers(t, 0) // earlier tests' pools have wound down
	var selfOps atomic.Uint64
	c := fleet.New(mixedFleet(4, telemetry.NewSpanRecorder(1<<16, &selfOps)))
	t.Cleanup(c.Nodes()[0].Machine().StopWorkers)
	if got := poolHelpers(); got != 3 {
		t.Fatalf("fleet.New at Workers=4 started %d helpers, want 3", got)
	}
	for i := 0; i < 50; i++ {
		c.Tick()
	}
	c.Nodes()[2].Machine().StopWorkers()
	c.Nodes()[0].Machine().StopWorkers()
	awaitPoolHelpers(t, 0)
	c.Tick() // a stopped pool keeps stepping, serially
	c.Nodes()[1].Sched().Step()
}

// TestFleetMigrationBounded pins cross-machine migration semantics: packed
// placement piles jobs onto machine 0, whose two sensitive mcf services
// make the contention-aware admission veto every lbm — with the aging
// bound out of reach, fleet migration is the only path off the stuck
// queue. It must fire, stay under the rate bound, and every migrated job
// must complete on its new machine.
func TestFleetMigrationBounded(t *testing.T) {
	c := fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{
			{Cores: 8, Domains: 2, Services: []fleet.Service{
				{Profile: prof("mcf", 150_000), Core: 0},
				{Profile: prof("mcf", 150_000), Core: 4},
			}},
			{Cores: 8, Domains: 2, Services: []fleet.Service{{Profile: prof("namd", 150_000), Core: 0}}},
		},
		Sched: sched.Config{
			Policy:     sched.PolicyContentionAware,
			Heuristic:  caer.HeuristicRule,
			Caer:       caer.DefaultConfig(),
			AgingBound: 30_000, // out of reach: migration, not aging, unsticks the queue
		},
		Policy: fleet.PolicyPacked,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveConstant, Rate: 16, Horizon: 1,
			Mix: []spec.Profile{prof("lbm", 80_000), prof("povray", 80_000)},
		},
		Seed:          3,
		MigratePeriod: 20,
		MaxPeriods:    40_000,
	})
	ticks := c.Run()
	rep := c.Report()
	if rep.Completed != rep.Arrivals {
		t.Fatalf("%d of %d jobs completed", rep.Completed, rep.Arrivals)
	}
	if rep.Migrations == 0 {
		t.Fatal("packed placement under 16 up-front jobs never triggered fleet migration")
	}
	if bound := ticks / 20; rep.Migrations > bound {
		t.Errorf("%d migrations in %d ticks exceeds the rate bound %d", rep.Migrations, ticks, bound)
	}
	migrated := 0
	for _, j := range rep.Jobs {
		if j.Migrations > 0 {
			migrated++
			if j.State != fleet.JobFinished {
				t.Errorf("migrated job %d ended %v, want finished", j.Index, j.State)
			}
			if j.Machine != 1 {
				t.Errorf("migrated job %d ended on machine %d, want 1", j.Index, j.Machine)
			}
		}
	}
	if migrated != rep.Migrations {
		t.Errorf("per-job migration sum %d != cluster count %d", migrated, rep.Migrations)
	}
	// A withdrawn job leaves a withdrawn terminal record on machine 0 and
	// a completed one on machine 1.
	withdrawn := 0
	for _, r := range c.Nodes()[0].Sched().JobReports() {
		if r.State == sched.JobWithdrawn {
			withdrawn++
		}
	}
	if withdrawn != rep.Migrations {
		t.Errorf("machine 0 has %d withdrawn jobs, want %d", withdrawn, rep.Migrations)
	}
}

// TestFleetOpenLoopServiceQoS pins the request-latency pipeline: an
// open-loop service accumulates requests with sane quantiles, and the
// fleet report aggregates per-node histograms consistently.
func TestFleetOpenLoopServiceQoS(t *testing.T) {
	c := fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{{
			Cores: 8, Domains: 2,
			Services: []fleet.Service{{Profile: prof("mcf", 40_000), Core: 0, Relaunch: true}},
		}},
		Sched:  identitySchedConfig(),
		Policy: fleet.PolicyLeastPressure,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveDiurnal, Rate: 0.4, Horizon: 1500,
			Mix: []spec.Profile{prof("lbm", 50_000), prof("povray", 50_000)},
		},
		Seed:       9,
		MaxPeriods: 20_000,
	})
	c.Run()
	rep := c.Report()
	if rep.Completed != rep.Arrivals || rep.Arrivals == 0 {
		t.Fatalf("%d of %d jobs completed", rep.Completed, rep.Arrivals)
	}
	if len(rep.Services) != 1 {
		t.Fatalf("%d service reports, want 1", len(rep.Services))
	}
	sv := rep.Services[0]
	if sv.Requests < 5 {
		t.Fatalf("open-loop mcf served only %d requests", sv.Requests)
	}
	if sv.P50 <= 0 || sv.P99 < sv.P50 {
		t.Errorf("QoS quantiles p50=%v p99=%v out of order", sv.P50, sv.P99)
	}
	if got := uint64(rep.Completed); rep.Sojourn.N() != got || rep.Wait.N() != got {
		t.Errorf("fleet-wide histograms hold %d/%d samples, want %d each", rep.Sojourn.N(), rep.Wait.N(), rep.Completed)
	}
	if rep.Throughput() <= 0 {
		t.Error("zero fleet throughput")
	}
}

// TestFleetWriteMetrics pins the fleet-wide telemetry merge: one snapshot
// carries every machine's series under machine="<k>" labels and parses
// back cleanly.
func TestFleetWriteMetrics(t *testing.T) {
	c := fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{
			{Cores: 8, Domains: 2, Services: []fleet.Service{{Profile: prof("mcf", 100_000), Core: 0}}},
			{Cores: 8, Domains: 2, Services: []fleet.Service{{Profile: prof("namd", 100_000), Core: 0}}},
		},
		Sched:  identitySchedConfig(),
		Policy: fleet.PolicyRoundRobin,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveConstant, Rate: 4, Horizon: 1,
			Mix: []spec.Profile{prof("lbm", 60_000), prof("povray", 60_000)},
		},
		Seed:       5,
		MaxPeriods: 20_000,
	})
	c.Run()
	var sb strings.Builder
	if err := c.WriteMetrics(&sb); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	ms, err := telemetry.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText over fleet snapshot: %v", err)
	}
	perMachine := map[string]float64{}
	for _, m := range ms {
		if m.Name == "caer_fleet_node_dispatches_total" {
			perMachine[m.Label("machine")] = m.Value
		}
	}
	if len(perMachine) != 2 {
		t.Fatalf("dispatch series for machines %v, want exactly {0,1}", perMachine)
	}
	if perMachine["0"]+perMachine["1"] != 4 {
		t.Errorf("per-machine dispatches %v do not sum to 4", perMachine)
	}
	// The process-global spine rides along unlabelled.
	found := false
	for _, m := range ms {
		if m.Name == "caer_fleet_dispatches_total" && m.Label("machine") == "" {
			found = true
		}
	}
	if !found {
		t.Error("fleet snapshot is missing the process-global caer_fleet_dispatches_total")
	}
}

// TestFleetUnderInterruptSampling is the ROADMAP gate "fleet runs under
// interrupt sampling": fleet.Config.Sched.Caer reaches every machine's
// detect/respond pipeline, so a fleet of quiet services sheds probes and
// still drains every arrival.
func TestFleetUnderInterruptSampling(t *testing.T) {
	scfg := identitySchedConfig()
	scfg.Caer.Sampling = caer.SamplingInterrupt
	machineSpec := func(service string) fleet.MachineSpec {
		return fleet.MachineSpec{
			Cores: 8, Domains: 2,
			// Requests long enough that the relaunch's cold-cache burst (which
			// fires the triggers) is a small share of each one.
			Services: []fleet.Service{{Profile: prof(service, 400_000), Core: 0, Relaunch: true}},
		}
	}
	c := fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{machineSpec("namd"), machineSpec("povray")},
		Sched:    scfg,
		Policy:   fleet.PolicyLeastPressure,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveDiurnal, Rate: 0.2, Horizon: 1500,
			Mix: []spec.Profile{prof("lbm", 50_000), prof("povray", 50_000)},
		},
		Seed:       9,
		MaxPeriods: 20_000,
	})
	c.Run()
	rep := c.Report()
	if rep.Completed != rep.Arrivals || rep.Arrivals == 0 {
		t.Fatalf("%d of %d jobs completed", rep.Completed, rep.Arrivals)
	}
	for k, n := range c.Nodes() {
		st := n.Sched().Pipeline().SamplingStats()
		if st.Mode != caer.SamplingInterrupt || st.SkippedPeriods == 0 || st.TriggerFires == 0 {
			t.Errorf("machine %d never slept and woke under interrupt sampling: %+v", k, st)
		}
		if d := n.Sched().DegradedTicks(); d != 0 {
			t.Errorf("machine %d: %d degraded ticks on a healthy run", k, d)
		}
	}
}

// TestNewRejectsMalformedConfig pins fleet.New's construction-time checks:
// no machines, an empty traffic mix (at any rate, zero included) and a
// policy outside the enum are bugs in the caller, reported by panic.
func TestNewRejectsMalformedConfig(t *testing.T) {
	for name, mutate := range map[string]func(*fleet.Config){
		"no machines":      func(c *fleet.Config) { c.Machines = nil },
		"empty mix":        func(c *fleet.Config) { c.Traffic.Mix = nil },
		"empty mix rate 0": func(c *fleet.Config) { c.Traffic = fleet.Traffic{} },
		"unknown policy":   func(c *fleet.Config) { c.Policy = fleet.Policy(9) },
	} {
		cfg := identityFleet(1)
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: fleet.New did not panic", name)
				}
			}()
			fleet.New(cfg)
		}()
	}
}

// TestFleetSharedLatencySeriesCountsOnce pins how same-named open-loop
// services on one machine are reported: they record into one registered
// series, each reports that series' quantiles, and MergedLatency counts the
// series once — its N is every request the fleet served, not the shared
// series twice over.
func TestFleetSharedLatencySeriesCountsOnce(t *testing.T) {
	mcf := func(core int) fleet.Service {
		return fleet.Service{Profile: prof("mcf", 40_000), Core: core, Relaunch: true}
	}
	c := fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{
			{Cores: 8, Domains: 2, Services: []fleet.Service{mcf(0), mcf(4)}},
			{Cores: 8, Domains: 2, Services: []fleet.Service{mcf(0)}},
		},
		Sched:  identitySchedConfig(),
		Policy: fleet.PolicyLeastPressure,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveDiurnal, Rate: 0.4, Horizon: 300,
			Mix: []spec.Profile{prof("lbm", 50_000)},
		},
		Seed:       5,
		MaxPeriods: 600,
	})
	c.Run()
	rep := c.Report()
	if len(rep.Services) != 3 {
		t.Fatalf("%d service reports, want 3", len(rep.Services))
	}
	a, b, other := rep.Services[0], rep.Services[1], rep.Services[2]
	if a.Requests == 0 || b.Requests == 0 || other.Requests == 0 {
		t.Fatalf("requests %d/%d/%d: every service must serve some", a.Requests, b.Requests, other.Requests)
	}
	if a.Latency != b.Latency || a.Latency == other.Latency {
		t.Fatal("same-named services on one machine must share one series, and only they")
	}
	if got, want := a.Latency.N(), uint64(a.Requests+b.Requests); got != want {
		t.Fatalf("shared series holds %d requests, want %d", got, want)
	}
	shared := a.Latency.Quantile(0.99)
	if a.P99 != shared || b.P99 != shared {
		t.Errorf("p99 %v/%v, want the shared series' %v", a.P99, b.P99, shared)
	}
	if got, want := rep.MergedLatency("mcf").N(), uint64(a.Requests+b.Requests+other.Requests); got != want {
		t.Errorf("MergedLatency N = %d, want %d requests", got, want)
	}
}
