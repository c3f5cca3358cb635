package sched

import (
	"testing"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/spec"
)

// testJob builds a finite batch job from a spec profile with a trimmed
// instruction count so end-to-end tests stay fast. Footprints are spread by
// index so co-located jobs never share data.
func testJob(name string, instr uint64, idx int) Job {
	p, ok := spec.ByName(name)
	if !ok {
		panic("unknown profile " + name)
	}
	p.Exec.Instructions = instr
	base := uint64(1<<28) + uint64(idx)<<26
	return Job{Name: name, New: func() *machine.Process {
		return p.NewProcess(base, int64(100+idx))
	}}
}

// newTestSched builds a 2-domain, 8-core deployment: mcf (sensitive latency
// service) on domain 0, namd (insensitive latency service) on domain 1.
func newTestSched(cfg Config) *Scheduler {
	m := machine.New(machine.Config{Cores: 8, Domains: 2})
	if cfg.Heuristic == 0 {
		cfg.Heuristic = caer.HeuristicRule
	}
	s := New(m, cfg)
	mcf, _ := spec.ByName("mcf")
	namd, _ := spec.ByName("namd")
	s.AddLatency("mcf", 0, mcf.Batch().NewProcess(0, 11))
	s.AddLatency("namd", 4, namd.Batch().NewProcess(1<<27, 12))
	return s
}

func TestSchedulerDrainsJobsUnderEveryPolicy(t *testing.T) {
	for _, policy := range []Policy{PolicyRoundRobin, PolicyContentionAware, PolicyPacked} {
		t.Run(policy.String(), func(t *testing.T) {
			s := newTestSched(Config{Policy: policy, AgingBound: 200})
			// Jobs are kept light: an lbm placed next to mcf is (correctly)
			// throttled hard by its engine, so it only retires instructions
			// in the minority of periods it is allowed to run.
			jobs := []Job{
				testJob("lbm", 150_000, 0),
				testJob("povray", 150_000, 1),
				testJob("lbm", 150_000, 2),
				testJob("povray", 150_000, 3),
			}
			for _, j := range jobs {
				s.Submit(j)
			}
			s.RunUntil(s.Done, 4000)
			if !s.Done() {
				t.Fatalf("jobs not drained after 4000 periods: queue=%d", s.QueueLen())
			}
			admits, completes := 0, 0
			for _, d := range s.Decisions() {
				switch d.Kind {
				case DecisionAdmit:
					admits++
				case DecisionComplete:
					completes++
				case DecisionMigrate:
				}
			}
			if admits != len(jobs) || completes != len(jobs) {
				t.Errorf("decisions: %d admits, %d completes, want %d each", admits, completes, len(jobs))
			}
			if s.MaxWait() > 200 {
				t.Errorf("MaxWait = %d exceeds aging bound 200", s.MaxWait())
			}
			m := s.m
			for i, r := range s.JobReports() {
				if r.State != JobDone {
					t.Errorf("job %d (%s) state = %v, want done", i, r.Name, r.State)
					continue
				}
				if r.Admitted == 0 || r.Done < r.Admitted {
					t.Errorf("job %d lifecycle periods admitted=%d done=%d", i, r.Admitted, r.Done)
				}
				if m.DomainOf(r.Core) != r.Domain {
					t.Errorf("job %d core %d is not in reported domain %d", i, r.Core, r.Domain)
				}
				// Both domains host a latency app, so every job ran under an
				// engine and its periods were accounted run-or-paused.
				if r.RunPeriods == 0 {
					t.Errorf("job %d has zero engine run periods", i)
				}
			}
		})
	}
}

// TestSchedulerAgingBound pins the starvation-avoidance guarantee: with an
// unreachable admission threshold, every job is force-admitted exactly at
// the aging bound, never past it.
func TestSchedulerAgingBound(t *testing.T) {
	s := newTestSched(Config{
		Policy:         PolicyContentionAware,
		AdmitThreshold: -1, // every domain always "too hot": admission only by aging
		AgingBound:     30,
	})
	for i := 0; i < 4; i++ {
		s.Submit(testJob("lbm", 200_000, i))
	}
	s.RunUntil(s.Done, 1500)
	if !s.Done() {
		t.Fatal("jobs not drained")
	}
	admits := 0
	for _, d := range s.Decisions() {
		if d.Kind != DecisionAdmit {
			continue
		}
		admits++
		if !d.Aged {
			t.Errorf("admission of job %d at period %d was not aged despite impossible threshold", d.Job, d.Period)
		}
		if d.Waited != 30 {
			t.Errorf("job %d admitted after waiting %d periods, want exactly the aging bound 30", d.Job, d.Waited)
		}
	}
	if admits != 4 {
		t.Errorf("%d admissions, want 4", admits)
	}
	if s.MaxWait() != 30 {
		t.Errorf("MaxWait = %d, want 30", s.MaxWait())
	}
}

// TestSchedulerContentionAwarePlacement pins the placement behaviour: with
// latency-sensitive mcf alone on domain 0 and domain 1 empty, the
// contention-aware policy sends every batch job to domain 1.
func TestSchedulerContentionAwarePlacement(t *testing.T) {
	m := machine.New(machine.Config{Cores: 8, Domains: 2})
	s := New(m, Config{Policy: PolicyContentionAware, Heuristic: caer.HeuristicRule, AgingBound: 500})
	mcf, _ := spec.ByName("mcf")
	s.AddLatency("mcf", 0, mcf.Batch().NewProcess(0, 11))
	for i := 0; i < 3; i++ {
		s.Submit(testJob("lbm", 300_000, i))
	}
	s.RunUntil(s.Done, 2000)
	if !s.Done() {
		t.Fatal("jobs not drained")
	}
	for _, d := range s.Decisions() {
		if d.Kind == DecisionAdmit && d.To != 1 {
			t.Errorf("job %d admitted to domain %d at period %d; contention-aware placement should avoid mcf's domain", d.Job, d.To, d.Period)
		}
	}
	// Domain 1 hosts no latency app, so jobs there run unmanaged: no engine
	// accounting.
	for i, r := range s.JobReports() {
		if r.Domain == 1 && (r.RunPeriods != 0 || r.PausedPeriods != 0) {
			t.Errorf("job %d on latency-free domain has engine accounting %d/%d", i, r.RunPeriods, r.PausedPeriods)
		}
	}
}

// TestSchedulerMigration pins bounded-rate migration: a packed placement
// puts the aggressor next to mcf; once the classifier learns its
// aggressiveness, the migration engine moves it to the empty domain.
func TestSchedulerMigration(t *testing.T) {
	m := machine.New(machine.Config{Cores: 8, Domains: 2})
	s := New(m, Config{
		Policy:          PolicyPacked,
		Heuristic:       caer.HeuristicRule,
		MigrationPeriod: 25,
	})
	mcf, _ := spec.ByName("mcf")
	s.AddLatency("mcf", 0, mcf.Batch().NewProcess(0, 11))
	s.Submit(testJob("lbm", 2_000_000, 0))
	periods := 0
	for ; periods < 600 && !s.Done(); periods++ {
		s.Step()
	}
	if s.Migrations() < 1 {
		t.Fatal("aggressor was never migrated off the latency domain")
	}
	migrates := 0
	for _, d := range s.Decisions() {
		if d.Kind != DecisionMigrate {
			continue
		}
		migrates++
		if d.From != 0 || d.To != 1 {
			t.Errorf("migration %d->%d, want 0->1", d.From, d.To)
		}
		if d.Period%25 != 0 {
			t.Errorf("migration at period %d violates the 25-period rate bound", d.Period)
		}
	}
	if got, bound := migrates, periods/25; got > bound {
		t.Errorf("%d migrations in %d periods exceeds the rate bound %d", got, periods, bound)
	}
	r := s.JobReports()[0]
	if r.Migrations != migrates {
		t.Errorf("job migration count %d != decision log %d", r.Migrations, migrates)
	}
	if r.Domain != 1 {
		t.Errorf("job ended on domain %d, want 1", r.Domain)
	}
}

func TestSchedulerLifecyclePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("no latency apps", func() {
		m := machine.New(machine.Config{Cores: 4, Domains: 2})
		New(m, Config{}).Step()
	})
	mustPanic("late latency", func() {
		s := newTestSched(Config{})
		s.Step()
		lbm := spec.LBM()
		s.AddLatency("late", 2, lbm.NewProcess(1<<30, 9))
	})
	mustPanic("latency core out of range", func() {
		s := newTestSched(Config{})
		lbm := spec.LBM()
		s.AddLatency("oob", 99, lbm.NewProcess(1<<30, 9))
	})
	mustPanic("duplicate latency core", func() {
		s := newTestSched(Config{})
		lbm := spec.LBM()
		s.AddLatency("dup", 0, lbm.NewProcess(1<<30, 9))
	})
	mustPanic("anonymous job", func() {
		s := newTestSched(Config{})
		s.Submit(Job{})
	})
}

func TestSchedulerSharedProfileByName(t *testing.T) {
	s := newTestSched(Config{})
	a := s.Submit(testJob("lbm", 1000, 0))
	b := s.Submit(testJob("lbm", 1000, 1))
	c := s.Submit(testJob("povray", 1000, 2))
	ja, jb, jc := s.jobs[a], s.jobs[b], s.jobs[c]
	if ja.app != jb.app {
		t.Error("same-named jobs do not share a classifier profile")
	}
	if ja.app == jc.app {
		t.Error("different jobs share a classifier profile")
	}
}

// TestSchedulerMidRunSubmit pins the open-loop shape the fleet dispatcher
// uses: jobs submitted after the first Step join the queue and drain like
// pre-start submissions.
func TestSchedulerMidRunSubmit(t *testing.T) {
	s := newTestSched(Config{AgingBound: 200})
	s.Submit(testJob("povray", 100_000, 0))
	s.Step()
	late := s.Submit(testJob("lbm", 100_000, 1))
	if got := s.JobStateOf(late); got != JobWaiting {
		t.Fatalf("mid-run submission state = %v, want waiting", got)
	}
	s.RunUntil(s.Done, 4000)
	if !s.Done() {
		t.Fatalf("mid-run submission not drained: state=%v queue=%d", s.JobStateOf(late), s.QueueLen())
	}
	if s.jobs[late].done == 0 {
		t.Error("mid-run submission has no completion period")
	}
}

// TestSchedulerWithdraw pins the fleet cross-machine migration primitive:
// a still-waiting job can be withdrawn (terminal for this scheduler, with
// a decision-log entry), a running or done job cannot, and Done treats
// withdrawn jobs as drained.
func TestSchedulerWithdraw(t *testing.T) {
	s := newTestSched(Config{AgingBound: 10_000})
	var ids []int
	// Enough jobs that the tail of the queue stays waiting after a step.
	for i := 0; i < 12; i++ {
		ids = append(ids, s.Submit(testJob("lbm", 50_000, i)))
	}
	if s.Withdraw(ids[len(ids)-1]) {
		t.Fatal("pre-start withdraw succeeded; fleet migration only runs mid-flight")
	}
	s.Step()
	tail := ids[len(ids)-1]
	if s.JobStateOf(tail) != JobWaiting {
		t.Fatalf("tail job not waiting after one step: %v", s.JobStateOf(tail))
	}
	if !s.Withdraw(tail) {
		t.Fatal("withdraw of waiting job failed")
	}
	if got := s.JobStateOf(tail); got != JobWithdrawn {
		t.Fatalf("withdrawn job state = %v", got)
	}
	if s.Withdraw(tail) {
		t.Fatal("double withdraw succeeded")
	}
	var running int = -1
	for _, id := range ids {
		if s.JobStateOf(id) == JobRunning {
			running = id
			break
		}
	}
	if running >= 0 && s.Withdraw(running) {
		t.Fatal("withdraw of running job succeeded")
	}
	found := false
	for _, d := range s.Decisions() {
		if d.Kind == DecisionWithdraw && d.Job == tail {
			found = true
			if d.Core != -1 || d.From != -1 || d.To != -1 {
				t.Errorf("withdraw decision has placement fields set: %+v", d)
			}
		}
	}
	if !found {
		t.Error("no DecisionWithdraw entry in the decision log")
	}
	s.RunUntil(s.Done, 20_000)
	if !s.Done() {
		t.Fatal("scheduler never drained with a withdrawn job in the set")
	}
	if r := s.JobReports()[tail]; r.State != JobWithdrawn || r.Done != 0 {
		t.Errorf("withdrawn job report state=%v done=%d, want withdrawn, 0", r.State, r.Done)
	}
}

// TestSchedulerSummarize pins the machine view fleet dispatch scores: free cores
// before start equal batch capacity, queue depth tracks submissions, and
// the summary refresh is allocation-free.
func TestSchedulerSummarize(t *testing.T) {
	s := newTestSched(Config{})
	var sum View
	s.Summarize(&sum)
	// 8 cores, 2 latency apps -> 6 batch cores.
	if sum.FreeCores != 6 {
		t.Fatalf("pre-start FreeCores = %d, want 6", sum.FreeCores)
	}
	if sum.Queued != 0 {
		t.Fatalf("pre-start Queued = %d, want 0", sum.Queued)
	}
	for i := 0; i < 8; i++ {
		s.Submit(testJob("lbm", 80_000, i))
	}
	for i := 0; i < 50; i++ {
		s.Step()
	}
	s.Summarize(&sum)
	if sum.FreeCores < 0 || sum.FreeCores > 6 {
		t.Fatalf("FreeCores = %d out of [0,6]", sum.FreeCores)
	}
	if sum.Queued != s.QueueLen() {
		t.Fatalf("Queued = %d, QueueLen = %d", sum.Queued, s.QueueLen())
	}
	if sum.Pressure < 0 || sum.Pressure >= float64(len(s.latency)) {
		t.Fatalf("Pressure = %v out of [0, apps)", sum.Pressure)
	}
	if sum.BatchLoad < 0 {
		t.Fatalf("BatchLoad = %v negative", sum.BatchLoad)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Summarize(&sum) }); allocs != 0 {
		t.Errorf("Summarize allocates %v/op; fleet dispatch path must be allocation-free", allocs)
	}
}
