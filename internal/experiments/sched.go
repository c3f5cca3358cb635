package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/report"
	"caer/internal/sched"
	"caer/internal/spec"
)

// SchedPolicyResult is one placement policy's outcome in the scheduler
// regime suite: the same latency service and job mix on the same
// multi-LLC-domain machine, differing only in how the admission queue's
// jobs are placed.
type SchedPolicyResult struct {
	// Name labels the configuration (policy, plus "+migration" when
	// bounded-rate migration is enabled).
	Name   string
	Policy sched.Policy

	// Periods is the latency app's completion time; QoSDegradation is its
	// slowdown versus the jobs-free baseline on the identical machine
	// (1.0 = no interference from the batch side at all).
	Periods        uint64
	QoSDegradation float64

	// JobsSubmitted / JobsCompleted pin the admitted batch throughput the
	// comparison holds equal: every policy must drain the same job set.
	JobsSubmitted, JobsCompleted int
	// BatchInstructions and BatchDuty summarise the batch side's progress.
	BatchInstructions uint64
	BatchDuty         float64

	// Queue behaviour: the longest any job waited (bounded by AgingBound
	// while cores are free), and how many admissions were forced by aging.
	MaxWait        int
	AgedAdmissions int
	// Migrations counts cross-domain job moves (0 unless enabled).
	Migrations int
	// DomainAdmissions counts admissions per LLC domain — the placement
	// signature (contention-aware steers aggressors off the latency
	// domain; round-robin splits them blindly).
	DomainAdmissions []int
}

// SchedRegime is the scheduler regime suite's result: one latency-sensitive
// service pinned to domain 0 of a 2-LLC-domain machine, a fixed mix of
// batch jobs flowing through the admission queue, compared across placement
// policies at equal admitted throughput.
type SchedRegime struct {
	Latency    string
	JobMix     []string
	Domains    int
	Cores      int
	Seed       int64
	AgingBound int

	// BaselinePeriods is the latency app's completion time with no jobs
	// submitted (co-location disallowed — the paper's conservative
	// baseline, on the scheduled machine).
	BaselinePeriods uint64
	Policies        []SchedPolicyResult
}

// schedRegimeConfig is one suite row: a policy plus whether bounded-rate
// migration is on.
type schedRegimeConfig struct {
	name            string
	policy          sched.Policy
	migrationPeriod int
}

// SchedRegimeSuite runs the scheduler regime comparison (DESIGN.md §9):
// mcf as the latency-sensitive service on domain 0 of a 2-domain, 8-core
// machine; a mix of lbm aggressors and povray quiet jobs submitted to the
// admission queue; identical seeds and job sets across policies. quick
// shrinks instruction counts 4x for a fast smoke run.
func SchedRegimeSuite(seed int64, quick bool) SchedRegime {
	scale := uint64(1)
	if quick {
		scale = 4
	}
	mcf := mustProfile("mcf")
	lbm := mustProfile("lbm")
	povray := mustProfile("povray")
	mcf.Exec.Instructions /= scale
	lbm.Exec.Instructions = 500_000 / scale
	povray.Exec.Instructions = 500_000 / scale

	jobs := []spec.Profile{lbm, lbm, povray, lbm, povray, lbm}

	out := SchedRegime{
		Latency:    spec.ShortName(mcf.Name),
		Domains:    2,
		Cores:      8,
		Seed:       seed,
		AgingBound: 1200,
	}
	for _, j := range jobs {
		out.JobMix = append(out.JobMix, spec.ShortName(j.Name))
	}

	run := func(cfg schedRegimeConfig, jobSet []spec.Profile) (*sched.Scheduler, uint64) {
		// The admission threshold is set above any reachable score so
		// queueing in this suite is purely capacity-driven: every policy
		// admits at the same rate and the comparison isolates *where* jobs
		// land, not *when*. Threshold-driven queueing is exercised by the
		// sched package's own tests.
		return sched.RunJobs(machine.Config{Cores: out.Cores, Domains: out.Domains}, sched.Config{
			Policy:          cfg.policy,
			Heuristic:       caer.HeuristicRule,
			AdmitThreshold:  100,
			AgingBound:      out.AgingBound,
			MigrationPeriod: cfg.migrationPeriod,
		}, mcf, jobSet, seed, 200_000)
	}

	_, out.BaselinePeriods = run(schedRegimeConfig{policy: sched.PolicyContentionAware}, nil)

	configs := []schedRegimeConfig{
		{name: "round-robin", policy: sched.PolicyRoundRobin},
		{name: "contention-aware", policy: sched.PolicyContentionAware},
		{name: "packed", policy: sched.PolicyPacked},
		{name: "packed+migration", policy: sched.PolicyPacked, migrationPeriod: 40},
	}
	for _, cfg := range configs {
		sd, periods := run(cfg, jobs)
		pr := SchedPolicyResult{
			Name:             cfg.name,
			Policy:           cfg.policy,
			Periods:          periods,
			QoSDegradation:   float64(periods) / float64(out.BaselinePeriods),
			JobsSubmitted:    len(jobs),
			MaxWait:          sd.MaxWait(),
			Migrations:       sd.Migrations(),
			DomainAdmissions: make([]int, out.Domains),
		}
		pr.JobsCompleted, pr.BatchInstructions, pr.BatchDuty = batchTotals(sd.JobReports())
		for _, d := range sd.Decisions() {
			if d.Kind != sched.DecisionAdmit {
				continue
			}
			pr.DomainAdmissions[d.To]++
			if d.Aged {
				pr.AgedAdmissions++
			}
		}
		out.Policies = append(out.Policies, pr)
	}
	return out
}

// batchTotals folds a run's job reports into the batch-side aggregates the
// scheduled suites tabulate: jobs run to completion, instructions retired,
// and duty — the share of placed job-periods that ran rather than paused.
func batchTotals(reports []sched.JobReport) (completed int, instructions uint64, duty float64) {
	var ran, paused uint64
	for _, r := range reports {
		if r.State == sched.JobDone {
			completed++
		}
		instructions += r.Instructions
		ran += r.RanPeriods()
		paused += r.PausedPeriods
	}
	if ran+paused > 0 {
		duty = float64(ran) / float64(ran+paused)
	}
	return completed, instructions, duty
}

func mustProfile(name string) spec.Profile {
	p, ok := spec.ByName(name)
	if !ok {
		panic("experiments: unknown profile " + name)
	}
	return p
}

// Table returns the regime comparison as a table.
//
//caer:deterministic
func (r SchedRegime) Table() *report.Table {
	t := report.NewTable("policy", "qos_degradation", "jobs_completed",
		"batch_duty", "admissions_d0/d1", "max_wait", "aged", "migrations")
	for _, p := range r.Policies {
		t.AddRow(p.Name,
			fmt.Sprintf("%.4f", p.QoSDegradation),
			fmt.Sprintf("%d/%d", p.JobsCompleted, p.JobsSubmitted),
			report.Percent(p.BatchDuty),
			fmt.Sprintf("%d/%d", p.DomainAdmissions[0], p.DomainAdmissions[1]),
			fmt.Sprintf("%d", p.MaxWait),
			fmt.Sprintf("%d", p.AgedAdmissions),
			fmt.Sprintf("%d", p.Migrations))
	}
	return t
}

// Render writes the regime summary.
func (r SchedRegime) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Scheduler regimes (DESIGN.md §9): %s service on domain 0 of %d domains x %d cores, jobs %v\nbaseline (no jobs): %d periods; aging bound %d\n",
		r.Latency, r.Domains, r.Cores/r.Domains, r.JobMix, r.BaselinePeriods, r.AgingBound); err != nil {
		return err
	}
	return r.Table().Render(w)
}

// Policy returns the named configuration's result.
func (r SchedRegime) Policy(name string) (SchedPolicyResult, bool) {
	for _, p := range r.Policies {
		if p.Name == name {
			return p, true
		}
	}
	return SchedPolicyResult{}, false
}

// Check enforces the placement gate: every policy drains the whole job set
// (equal admitted throughput) with no job held past the aging bound, and
// contention-aware placement admits strictly fewer jobs onto the latency
// service's domain than round-robin without costing the service more than
// one period — the resolution of the QoS measurement — over round-robin.
func (r SchedRegime) Check() error {
	if r.BaselinePeriods == 0 {
		return fmt.Errorf("baseline latency run never completed")
	}
	for _, p := range r.Policies {
		if p.JobsCompleted != p.JobsSubmitted {
			return fmt.Errorf("%s completed %d of %d jobs (throughput not equal)", p.Name, p.JobsCompleted, p.JobsSubmitted)
		}
		if p.MaxWait > r.AgingBound {
			return fmt.Errorf("%s held a job %d periods, past the aging bound %d", p.Name, p.MaxWait, r.AgingBound)
		}
	}
	rr, okRR := r.Policy("round-robin")
	ca, okCA := r.Policy("contention-aware")
	if !okRR || !okCA {
		return fmt.Errorf("scheduler regime missing round-robin or contention-aware row")
	}
	if ca.DomainAdmissions[0] >= rr.DomainAdmissions[0] {
		return fmt.Errorf("contention-aware admitted %d jobs onto the latency domain, not fewer than round-robin's %d",
			ca.DomainAdmissions[0], rr.DomainAdmissions[0])
	}
	if ca.Periods > rr.Periods+1 {
		return fmt.Errorf("contention-aware latency run took %d periods, round-robin %d", ca.Periods, rr.Periods)
	}
	return nil
}

// Holds is empty: the scheduler suite prints its table and artifact path
// only.
func (r SchedRegime) Holds() string { return "" }
