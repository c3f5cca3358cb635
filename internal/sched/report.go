package sched

import "fmt"

// This file is the scheduler's read side: the per-period summaries the
// fleet layer polls (allocation-free) and the end-of-run reports.

// AppAggressiveness returns the classifier's aggressiveness score for the
// named application, or (0, false) if this scheduler has never seen it.
// Fleet dispatch consults every machine's classifier this way, so a job
// profiled on one machine informs placement on all of them.
func (s *Scheduler) AppAggressiveness(name string) (float64, bool) {
	//caer:allow hotpath read-only lookup in the name table built at Submit time; the fleet dispatch scan never grows it
	app, ok := s.appByName[name]
	if !ok {
		return 0, false
	}
	return s.classifier.Aggressiveness(app), true
}

// Summarize fills v with the whole machine as one placement candidate: the
// view the fleet's dispatch scores, aggregated over every LLC domain, with
// the admission-queue depth as Queued. It runs on the fleet's per-period
// dispatch path and refills the caller-held view in place: allocation-free.
func (s *Scheduler) Summarize(v *View) {
	// Before the first Step nothing is placed: every non-latency core is free.
	*v = View{FreeCores: s.m.Cores() - len(s.latency) - len(s.running), Queued: s.queue.Len()}
	for i := range s.latency {
		la := &s.latency[i]
		v.Sensitivity += s.classifier.Sensitivity(la.app)
		v.Pressure += s.pressure(la)
	}
	for _, j := range s.running {
		v.BatchLoad += s.classifier.Aggressiveness(j.app)
	}
}

// LatencyPressure fills pressure[i] with latency app i's normalized
// windowed LLC-miss pressure (the same term Summarize aggregates), in
// registration order. pressure must hold at least LatencyApps entries.
// Allocation-free — the fleet telemetry export calls it every period to
// keep its caer_core_pressure gauges live.
func (s *Scheduler) LatencyPressure(pressure []float64) {
	for i := range s.latency {
		pressure[i] = s.pressure(&s.latency[i])
	}
}

// DegradedTicks returns the lifetime fail-open degraded periods summed
// over every CAER engine this scheduler has run, including engines
// abandoned by migration. Allocation-free — the fleet telemetry export
// polls it every period to drive a degraded-ticks budget SLO.
func (s *Scheduler) DegradedTicks() uint64 {
	total := s.degradedRetired
	for _, j := range s.running {
		if eng := j.batch.Engine(); eng != nil {
			total += eng.Stats().DegradedTicks
		}
	}
	return total
}

// DecisionKind classifies an entry of the scheduler's decision log.
type DecisionKind int

const (
	// DecisionAdmit records a job leaving the queue for a core.
	DecisionAdmit DecisionKind = iota
	// DecisionMigrate records a running job moving between domains.
	DecisionMigrate
	// DecisionComplete records a job finishing and releasing its core.
	DecisionComplete
	// DecisionWithdraw records a waiting job being pulled back out of the
	// queue (fleet cross-machine migration re-dispatches it elsewhere).
	DecisionWithdraw
)

// String names the decision kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionAdmit:
		return "admit"
	case DecisionMigrate:
		return "migrate"
	case DecisionComplete:
		return "complete"
	case DecisionWithdraw:
		return "withdraw"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is one entry of the placement/admission timeline.
type Decision struct {
	Period uint64 // scheduler period (1-based) the decision was taken in
	Kind   DecisionKind
	Job    int    // job index (submission order)
	Name   string // job name
	From   int    // source domain (-1 for admissions)
	To     int    // target domain (-1 for completions)
	Core   int    // core involved
	Waited int    // periods spent queued (admissions)
	Aged   bool   // admission was forced by the aging bound
	Queued int    // queue length after the decision
}

// Decisions returns a copy of the placement/admission timeline.
func (s *Scheduler) Decisions() []Decision {
	out := make([]Decision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

// JobReport is one job's lifecycle summary.
type JobReport struct {
	Name         string
	State        JobState
	Domain, Core int
	Waited       int
	Aged         bool
	Admitted     uint64 // 1-based period; 0 = never admitted
	Done         uint64 // 1-based period; 0 = not finished
	Migrations   int

	// Instructions and Misses are the job process's lifetime totals (as
	// observed by the pipeline's per-job probe; 0 before admission).
	Instructions uint64
	Misses       uint64

	// Engine decision counters summed over every engine the job ran
	// under (it gets a fresh engine per migration).
	PausedPeriods, RunPeriods uint64
	CPositive, CNegative      uint64
}

// RanPeriods is the number of periods the job ran rather than sat paused —
// its duty cycle's numerator, PausedPeriods being the rest. A job placed on
// a domain with no latency-sensitive app gets no engine, so its counters
// stay zero: once done, it ran every period it held a core.
func (r JobReport) RanPeriods() uint64 {
	if r.RunPeriods+r.PausedPeriods == 0 && r.State == JobDone {
		return r.Done - r.Admitted + 1
	}
	return r.RunPeriods
}

// JobReports returns every job's summary in submission order.
func (s *Scheduler) JobReports() []JobReport {
	out := make([]JobReport, len(s.jobs))
	for i, j := range s.jobs {
		st := j.stats
		if j.batch != nil && j.batch.Engine() != nil {
			st.Add(j.batch.Engine().Stats())
		}
		r := JobReport{
			Name: j.spec.Name, State: j.state, Domain: j.domain, Core: j.core,
			Waited: j.waited, Aged: j.aged, Admitted: j.admitted, Done: j.done,
			Migrations:    j.migrations,
			PausedPeriods: st.PausedPeriods, RunPeriods: st.RunPeriods,
			CPositive: st.CPositive, CNegative: st.CNegative,
			Misses: j.missTotal,
		}
		if j.proc != nil {
			r.Instructions = j.proc.Retired()
		}
		out[i] = r
	}
	return out
}

// LatencyReport is one latency-sensitive app's summary.
type LatencyReport struct {
	Name   string
	Core   int
	Domain int
	App    int    // classifier id
	Done   uint64 // 1-based completion period; 0 = still running
}

// LatencyReports returns every latency app's summary in registration
// order.
func (s *Scheduler) LatencyReports() []LatencyReport {
	out := make([]LatencyReport, len(s.latency))
	for i := range s.latency {
		la := &s.latency[i]
		out[i] = LatencyReport{Name: la.name, Core: la.core, Domain: la.domain, App: la.app, Done: la.donePeriod}
	}
	return out
}
