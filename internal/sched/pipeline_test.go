package sched

import (
	"reflect"
	"testing"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/spec"
)

// newQuietSched builds the 2-domain, 8-core deployment with quiet latency
// services (namd on each domain): their LLC pressure sits below the noise
// threshold, so the adaptive and interrupt probe schedules can widen.
func newQuietSched(cc caer.Config) *Scheduler {
	m := machine.New(machine.Config{Cores: 8, Domains: 2})
	s := New(m, Config{Heuristic: caer.HeuristicRule, Caer: cc, Policy: PolicyContentionAware})
	namd, _ := spec.ByName("namd")
	s.AddLatency("namd", 0, namd.Batch().NewProcess(0, 11))
	s.AddLatency("namd2", 4, namd.Batch().NewProcess(1<<27, 12))
	return s
}

func submitMix(s *Scheduler, n int, instr uint64) {
	for i := 0; i < n; i++ {
		name := "povray"
		if i%2 == 0 {
			name = "lbm"
		}
		s.Submit(testJob(name, instr, i))
	}
}

// windowMissMean returns the classifier's windowed mean misses/period for
// the named job app (the last classifierWindow periods it was observed).
func windowMissMean(s *Scheduler, name string) float64 {
	return s.classifier.apps[s.appByName[name]].misses.Mean()
}

// TestSchedulerHonoursSampling pins the Config.Caer bugfix: a scheduled
// machine under the adaptive and interrupt schedules sheds probes on a
// quiet machine, still completes every job, trips no watchdog (skipped
// probes declare their cadence), and keeps the classifier's windows in
// misses-per-period units even though a probe spans many periods.
func TestSchedulerHonoursSampling(t *testing.T) {
	poll := newQuietSched(caer.DefaultConfig())
	submitMix(poll, 6, 150_000)
	poll.RunUntil(poll.Done, 20_000)
	if st := poll.pipe.SamplingStats(); st.SkippedPeriods != 0 {
		t.Fatalf("polling skipped %d periods", st.SkippedPeriods)
	}
	want := windowMissMean(poll, "lbm")

	for _, mode := range []caer.SamplingMode{caer.SamplingAdaptive, caer.SamplingInterrupt} {
		t.Run(mode.String(), func(t *testing.T) {
			cc := caer.DefaultConfig()
			cc.Sampling = mode
			s := newQuietSched(cc)
			submitMix(s, 6, 150_000)
			s.RunUntil(s.Done, 20_000)
			if !s.Done() {
				t.Fatalf("jobs did not drain: queue=%d running=%d", s.QueueLen(), len(s.running))
			}
			st := s.pipe.SamplingStats()
			if st.Mode != mode || st.SkippedPeriods == 0 || st.WidestInterval < 2 {
				t.Errorf("schedule never widened: %+v", st)
			}
			if st.ProbePeriods+st.SkippedPeriods != s.period {
				t.Errorf("probed %d + skipped %d != %d periods", st.ProbePeriods, st.SkippedPeriods, s.period)
			}
			for _, j := range s.jobs {
				if j.stats.WatchdogTrips != 0 || j.stats.DegradedTicks != 0 {
					t.Errorf("job %d: healthy run tripped the watchdog: %+v", j.id, j.stats)
				}
			}
			if got := s.DegradedTicks(); got != 0 {
				t.Errorf("DegradedTicks = %d on a healthy run", got)
			}
			// A probe's deltas span up to MaxProbeInterval periods; fed raw
			// they would inflate the mean by about that factor.
			if got := windowMissMean(s, "lbm"); got < 0.5*want || got > 1.5*want {
				t.Errorf("lbm windowed misses/period = %.1f, polling measures %.1f: not normalized by span", got, want)
			}
		})
	}
}

// TestSchedulerAdmissionWakesSchedule: a job admitted while the interrupt
// schedule sleeps (or the adaptive one is widened) is probed the very next
// period, over a one-period span.
func TestSchedulerAdmissionWakesSchedule(t *testing.T) {
	for _, mode := range []caer.SamplingMode{caer.SamplingAdaptive, caer.SamplingInterrupt} {
		t.Run(mode.String(), func(t *testing.T) {
			cc := caer.DefaultConfig()
			cc.Sampling = mode
			s := newQuietSched(cc)
			pipe := s.pipe
			for i := 0; i < 200 && pipe.SamplingStats().WidestInterval < cc.MaxProbeInterval; i++ {
				s.Step()
			}
			// Land the admission in the middle of a skipped stretch (under
			// interrupt sampling a skipped period is a sleeping one).
			for before := pipe.SamplingStats().ProbePeriods; pipe.SamplingStats().ProbePeriods == before; {
				s.Step()
			}
			s.Step()
			probes := pipe.SamplingStats().ProbePeriods
			id := s.Submit(testJob("lbm", 400_000, 0))
			s.Step()
			if s.JobStateOf(id) != JobRunning {
				t.Fatalf("job not admitted on an idle machine: %v", s.JobStateOf(id))
			}
			if pipe.SamplingStats().ProbePeriods != probes {
				t.Fatal("admission period was itself a probe; the test needs a skipped one")
			}
			s.Step()
			if got := pipe.SamplingStats().ProbePeriods; got != probes+1 {
				t.Errorf("period after admission did not probe (%d -> %d)", probes, got)
			}
			if _, span := s.jobs[id].batch.Sample(); span != 1 {
				t.Errorf("newcomer's first sample spans %d periods, want 1", span)
			}
			if n := s.classifier.apps[s.jobs[id].app].misses.Len(); n != 1 {
				t.Errorf("classifier saw %d samples of the newcomer, want 1", n)
			}
		})
	}
}

// TestSchedulerRunningSetOrder: the running set, and with it the
// pipeline's engine tick order, stays in job-id order across completions
// and migrations.
func TestSchedulerRunningSetOrder(t *testing.T) {
	s := newTestSched(Config{Policy: PolicyPacked, MigrationPeriod: 20})
	for i := 0; i < 10; i++ {
		name := "lbm"
		if i%3 == 0 {
			name = "povray"
		}
		s.Submit(testJob(name, uint64(40_000+30_000*(i%4)), i))
	}
	for p := 0; p < 6000 && !s.Done(); p++ {
		s.Step()
		for i := 1; i < len(s.running); i++ {
			if s.running[i-1].id >= s.running[i].id {
				t.Fatalf("period %d: running set out of job-id order at %d", s.period, i)
			}
		}
		for _, j := range s.running {
			if j.state != JobRunning || j.batch == nil {
				t.Fatalf("period %d: job %d in the running set is %v", s.period, j.id, j.state)
			}
		}
	}
	if !s.Done() {
		t.Fatal("jobs did not drain")
	}
	if s.Migrations() == 0 {
		t.Error("scenario exercised no migration")
	}
	if len(s.running) != 0 {
		t.Errorf("%d jobs left in the running set after the drain", len(s.running))
	}
}

// TestSchedulerStepAllocFree pins the per-period path at zero allocations
// in steady state (jobs running, nothing admitted, finished or migrated).
func TestSchedulerStepAllocFree(t *testing.T) {
	for _, resp := range []ResponseKind{ResponseThrottle, ResponseHybrid} {
		s := newTestSched(Config{Response: resp, AgingBound: 5})
		for i := 0; i < 4; i++ {
			s.Submit(testJob("lbm", 50_000_000, i))
		}
		for i := 0; i < 50; i++ {
			s.Step()
		}
		if len(s.running) != 4 || s.QueueLen() != 0 {
			t.Fatalf("%v: steady state not reached: running=%d queued=%d", resp, len(s.running), s.QueueLen())
		}
		if n := testing.AllocsPerRun(50, s.Step); n != 0 {
			t.Errorf("%v: Scheduler.Step allocates %v/op in steady state", resp, n)
		}
	}
}

// TestStepEqualsArmRunControl pins Step as the composition of its exported
// halves — arm, the machine's period, the control half — which the fleet
// calls separately around one pool call for every machine. Period for
// period the two drives agree on the decision log, the job reports (engine
// counters included), the live engines' stats, the probe schedule and the
// applied way-masks, so the lazy arming cannot drift to after the first
// period under any sampling mode or with the partition stage on.
func TestStepEqualsArmRunControl(t *testing.T) {
	sampled := func(mode caer.SamplingMode) func() *Scheduler {
		cc := caer.DefaultConfig()
		cc.Sampling = mode
		return func() *Scheduler { return newQuietSched(cc) }
	}
	for name, build := range map[string]func() *Scheduler{
		"polling":   func() *Scheduler { return newTestSched(Config{MigrationPeriod: 20}) },
		"adaptive":  sampled(caer.SamplingAdaptive),
		"interrupt": sampled(caer.SamplingInterrupt),
		"partition": func() *Scheduler {
			return newTestSched(Config{Response: ResponsePartition, Policy: PolicyContentionAware})
		},
	} {
		t.Run(name, func(t *testing.T) {
			whole, halves := build(), build()
			submitMix(whole, 6, 120_000)
			submitMix(halves, 6, 120_000)
			for p := 1; p <= 20_000 && !whole.Done(); p++ {
				whole.Step()
				halves.Arm()
				halves.m.RunPeriod()
				halves.Control()
				same := reflect.DeepEqual(whole.Decisions(), halves.Decisions()) &&
					reflect.DeepEqual(whole.JobReports(), halves.JobReports()) &&
					whole.pipe.SamplingStats() == halves.pipe.SamplingStats() &&
					len(whole.running) == len(halves.running)
				for i := 0; same && i < len(whole.running); i++ {
					a, b := whole.running[i].batch, halves.running[i].batch
					am, as := a.Sample()
					bm, bs := b.Sample()
					same = am == bm && as == bs && (a.Engine() == nil) == (b.Engine() == nil) &&
						(a.Engine() == nil || a.Engine().Stats() == b.Engine().Stats())
				}
				for d := 0; same && d < len(whole.parts); d++ {
					same = reflect.DeepEqual(whole.parts[d].applied, halves.parts[d].applied)
				}
				if !same {
					t.Fatalf("period %d: Step and Arm+RunPeriod+Control diverged:\n%+v\n%+v",
						p, whole.JobReports(), halves.JobReports())
				}
			}
			if !whole.Done() || !halves.Done() {
				t.Fatal("jobs did not drain")
			}
			if name == "partition" && whole.parts == nil {
				t.Fatal("partition stage never built")
			}
			if name == "polling" && whole.Migrations() == 0 {
				t.Fatal("polling row never migrated: the across-migrations case went untested")
			}
		})
	}
}
