package sched

import (
	"fmt"

	"caer/internal/comm"
	"caer/internal/telemetry"
)

// This file is the scheduler's decision stage: submission, retiring
// finished jobs, aging and admitting queued ones, and bounded-rate
// migration. A job reaches a core only through place (which attaches it to
// the pipeline) and leaves it only through vacate (which detaches it), so
// the pipeline's attached set is exactly s.running.

// Submit queues a batch job. Jobs sharing a Name share a classifier
// profile, so repeated instances of the same program benefit from what
// earlier runs taught the classifier. Jobs are admitted in submission
// order (FIFO with aging). Submission is allowed both before the first
// Step (the closed job set RunJobs runs) and while the scheduler is running
// (open-loop arrivals dispatched by the fleet layer); a job submitted
// mid-run joins the tail of the queue.
func (s *Scheduler) Submit(j Job) int {
	if j.Name == "" || j.New == nil {
		panic("sched: job needs a name and a process factory")
	}
	app, ok := s.appByName[j.Name]
	if !ok {
		app = s.classifier.AddApp()
		s.appByName[j.Name] = app
	}
	js := &jobState{
		id:     len(s.jobs),
		spec:   j,
		app:    app,
		state:  JobWaiting,
		slot:   s.pipe.Table().Register(j.Name, comm.RoleBatch),
		core:   -1,
		domain: -1,
	}
	s.spans.NameTrack(s.pipe.Track(js.slot), s.cfg.TrackPrefix+"job/"+j.Name)
	s.jobs = append(s.jobs, js)
	s.queue.Push(js.id)
	s.open++
	return js.id
}

// Withdraw pulls a still-waiting job back out of the admission queue and
// reports whether it succeeded (false once the job is running or done, and
// before the first Step). The fleet layer migrates queued work this way:
// the job is terminal here (JobWithdrawn) and is re-submitted to another
// machine's scheduler. Cold path: it records a decision and may allocate.
func (s *Scheduler) Withdraw(job int) bool {
	if job < 0 || job >= len(s.jobs) {
		panic(fmt.Sprintf("sched: withdraw of unknown job %d", job))
	}
	j := s.jobs[job]
	if j.state != JobWaiting || !s.started || !s.queue.Remove(job) {
		return false
	}
	j.state = JobWithdrawn
	s.open--
	s.decisions = append(s.decisions, Decision{
		Period: s.period, Kind: DecisionWithdraw, Job: job, Name: j.spec.Name,
		From: -1, To: -1, Core: -1, Waited: j.waited, Queued: s.queue.Len(),
	})
	return true
}

// place binds j's process to a free core of domain d and attaches it to
// the pipeline there, under a fresh engine. It returns the core.
func (s *Scheduler) place(j *jobState, d int) int {
	core := s.findFreeCore(d)
	s.m.Bind(core, j.proc)
	j.core = core
	j.domain = d
	j.batch = s.pipe.Attach(j.slot, core, d)
	s.coreBusy[core] = true
	s.freeCount[d]--
	return core
}

// vacate takes j off its core: flush and unbind, detach from the pipeline
// (which lifts the response from the core), and fold the engine it leaves
// behind into the job's totals.
func (s *Scheduler) vacate(j *jobState) {
	s.m.FlushCore(j.core)
	s.m.Unbind(j.core)
	s.pipe.Detach(j.batch)
	if eng := j.batch.Engine(); eng != nil {
		st := eng.Stats()
		j.stats.Add(st)
		s.degradedRetired += st.DegradedTicks
	}
	j.batch = nil
	s.coreBusy[j.core] = false
	s.freeCount[j.domain]++
}

// finishJobs retires jobs that ran to completion, releasing their cores.
//
//caer:cold decision path: records completions and detaches engines, allocating by design; the per-period loop around it is hot
func (s *Scheduler) finishJobs() {
	kept := s.running[:0]
	for _, j := range s.running {
		if !j.proc.Done() {
			kept = append(kept, j)
			continue
		}
		s.vacate(j)
		j.state = JobDone
		j.done = s.period
		s.open--
		telemetry.SchedCompletions.Inc()
		residency := s.period - j.admitted
		if residency == 0 {
			residency = 1
		}
		s.spans.Record(s.pipe.Track(j.slot), telemetry.SpanJob,
			j.admitted, uint32(residency), float64(j.migrations))
		s.decisions = append(s.decisions, Decision{
			Period: s.period, Kind: DecisionComplete, Job: j.id, Name: j.spec.Name,
			From: j.domain, To: -1, Core: j.core, Queued: s.queue.Len(),
		})
	}
	clear(s.running[len(kept):])
	s.running = kept
}

// ageQueue advances every waiting job's age. Allocation-free.
func (s *Scheduler) ageQueue() {
	for i := 0; i < s.queue.Len(); i++ {
		s.jobs[s.queue.At(i)].waited++
	}
}

// admit takes at most one *voluntary* admission decision per period
// (rate-bounding the placement churn): the queue head is placed by the
// policy, unless the chosen domain's predicted interference exceeds the
// admission threshold — then the whole FIFO waits for pressure to subside,
// up to the aging bound. Jobs past the aging bound are admitted regardless
// of the threshold AND regardless of the per-period rate limit, so aged
// jobs never queue behind one another: while a free core exists, no job
// waits past AgingBound (starvation avoidance).
func (s *Scheduler) admit() {
	admitted := 0
	for {
		head := s.queue.Peek()
		if head < 0 {
			return
		}
		j := s.jobs[head]
		s.fillViews()
		s.doms.aggr = s.classifier.Aggressiveness(j.app)
		d := s.picker.Pick(&s.doms)
		if d < 0 {
			return // no free core anywhere: capacity-bound wait
		}
		aged := j.waited >= s.cfg.AgingBound
		if !aged && (admitted > 0 || s.doms.Score(d) > s.cfg.AdmitThreshold) {
			if admitted == 0 {
				telemetry.SchedVetoes.Inc()
			}
			return // pressure too high where the policy would place us
		}
		s.admitTo(j, d, aged)
		admitted++
	}
}

// admitTo places queue head j on domain d and records the decision.
//
//caer:cold decision path: records the admission and attaches an engine, allocating by design; the per-period scan around it is hot
func (s *Scheduler) admitTo(j *jobState, d int, aged bool) {
	s.queue.Pop()
	j.proc = j.spec.New()
	core := s.place(j, d)
	j.state = JobRunning
	j.aged = aged
	j.admitted = s.period
	// Admission is FIFO over ids that only grow, so appending keeps the
	// running set in job-id order.
	s.running = append(s.running, j)
	s.picker.Commit(d)
	if j.waited > s.maxWait {
		s.maxWait = j.waited
	}
	telemetry.SchedAdmissions.Inc()
	if aged {
		telemetry.SchedAgedBypasses.Inc()
	}
	if j.waited > 0 {
		s.spans.Record(s.pipe.Track(j.slot), telemetry.SpanQueued,
			s.period-uint64(j.waited), uint32(j.waited), float64(s.queue.Len()))
	}
	s.decisions = append(s.decisions, Decision{
		Period: s.period, Kind: DecisionAdmit, Job: j.id, Name: j.spec.Name,
		From: -1, To: d, Core: core, Waited: j.waited, Aged: aged, Queued: s.queue.Len(),
	})
}

// fillViews refreshes the per-domain placement views. Allocation-free;
// runs whenever a placement or migration decision is evaluated.
func (s *Scheduler) fillViews() {
	views := s.doms.views
	for d := range views {
		views[d] = View{FreeCores: s.freeCount[d]}
	}
	for i := range s.latency {
		la := &s.latency[i]
		views[la.domain].Sensitivity += s.classifier.Sensitivity(la.app)
		views[la.domain].Pressure += s.pressure(la)
	}
	for _, j := range s.running {
		views[j.domain].BatchLoad += s.classifier.Aggressiveness(j.app)
	}
}

// maybeMigrate evaluates bounded-rate migration: every MigrationPeriod
// periods, the single running job whose move to another domain improves
// predicted interference the most — by at least migrationMargin — is
// re-placed there. The job's process survives the move; its caches start
// cold on the new domain (the realistic migration cost).
//
//caer:cold decision path, rate-bounded by MigrationPeriod: records the move and re-attaches the engine, allocating by design
func (s *Scheduler) maybeMigrate() {
	if s.cfg.MigrationPeriod <= 0 || s.period%uint64(s.cfg.MigrationPeriod) != 0 {
		return
	}
	s.fillViews()
	views := s.doms.views
	var best *jobState
	bestTo := -1
	var bestGain float64
	for _, j := range s.running {
		aggr := s.classifier.Aggressiveness(j.app)
		// Score the job's current domain without its own batch-load
		// contribution, so staying put isn't penalized for its own weight.
		from := views[j.domain]
		from.BatchLoad -= aggr
		cur := Interference(from, aggr)
		for d := range views {
			if d == j.domain || !views[d].Eligible() {
				continue
			}
			gain := cur - Interference(views[d], aggr)
			if gain > bestGain {
				best, bestTo, bestGain = j, d, gain
			}
		}
	}
	if best == nil || bestGain < migrationMargin {
		return
	}
	oldDomain := best.domain
	s.vacate(best)
	core := s.place(best, bestTo)
	best.migrations++
	s.migrations++
	telemetry.SchedMigrations.Inc()
	s.decisions = append(s.decisions, Decision{
		Period: s.period, Kind: DecisionMigrate, Job: best.id, Name: best.spec.Name,
		From: oldDomain, To: bestTo, Core: core, Queued: s.queue.Len(),
	})
}

// findFreeCore returns a free core of domain d; it panics if the domain's
// free-core accounting is corrupt.
func (s *Scheduler) findFreeCore(d int) int {
	lo, hi := s.m.DomainCores(d)
	for c := lo; c < hi; c++ {
		if !s.coreBusy[c] {
			return c
		}
	}
	panic(fmt.Sprintf("sched: domain %d has no free core despite freeCount %d", d, s.freeCount[d]))
}
