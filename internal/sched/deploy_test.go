package sched

import (
	"testing"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/spec"
)

// testProfile returns a benchmark profile trimmed to instr instructions.
func testProfile(t *testing.T, name string, instr uint64) spec.Profile {
	t.Helper()
	p, ok := spec.ByName(name)
	if !ok {
		t.Fatalf("unknown profile %q", name)
	}
	p.Exec.Instructions = instr
	return p
}

// TestLayoutMatchesParent writes the layout out in literals — the bases
// and seeds runner's scheduled mode and fleet.newNode/dispatchTo each
// computed before the layout lived here — so a drift in a constant or an
// offset fails on the number, before it fails a digest.
func TestLayoutMatchesParent(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, 1042} {
		for j := 0; j < 6; j++ {
			wantBase, wantSeed := uint64(0), seed
			if j > 0 {
				wantBase = 1<<27 + uint64(j-1)*(1<<26)
				wantSeed = seed + 100 + int64(j-1)
			}
			if base, s := ServiceLayout(j, seed); base != wantBase || s != wantSeed {
				t.Errorf("ServiceLayout(%d, %d) = (%#x, %d), want (%#x, %d)", j, seed, base, s, wantBase, wantSeed)
			}
		}
		for i := 0; i < 40; i++ {
			wantBase, wantSeed := 1<<28+uint64(i)*(1<<26), seed+1+int64(i)
			if base, s := JobLayout(i, seed); base != wantBase || s != wantSeed {
				t.Errorf("JobLayout(%d, %d) = (%#x, %d), want (%#x, %d)", i, seed, base, s, wantBase, wantSeed)
			}
		}
	}
}

// TestJobReportRanPeriods covers the duty rule's three shapes.
func TestJobReportRanPeriods(t *testing.T) {
	cases := []struct {
		name string
		r    JobReport
		want uint64
	}{
		{"engine ran and paused", JobReport{State: JobDone, Admitted: 3, Done: 50, RunPeriods: 30, PausedPeriods: 18}, 30},
		{"engine-less domain, completed", JobReport{State: JobDone, Admitted: 3, Done: 50}, 48},
		{"never admitted", JobReport{State: JobWaiting, Domain: -1, Core: -1, Waited: 12}, 0},
	}
	for _, c := range cases {
		if got := c.r.RanPeriods(); got != c.want {
			t.Errorf("%s: RanPeriods() = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRunScheduledDrainsJobs(t *testing.T) {
	lat := testProfile(t, "mcf", 600_000)
	job := testProfile(t, "lbm", 120_000)
	quiet := testProfile(t, "povray", 120_000)
	s, periods := RunJobs(machine.Config{Cores: 8, Domains: 2},
		Config{Policy: PolicyContentionAware, Heuristic: caer.HeuristicRule, AgingBound: 200},
		lat, []spec.Profile{job, quiet, job}, 7, 10_000_000)
	if done := s.LatencyReports()[0].Done; done == 0 || done != periods {
		t.Fatalf("latency app completed at period %d, RunJobs returned %d", done, periods)
	}
	reports := s.JobReports()
	if len(reports) != 3 {
		t.Fatalf("JobReports has %d entries, want 3", len(reports))
	}
	var instructions uint64
	for i, r := range reports {
		if r.State != JobDone || r.Admitted == 0 || r.Done < r.Admitted {
			t.Errorf("job %d lifecycle: state=%v admitted=%d done=%d", i, r.State, r.Admitted, r.Done)
		}
		if r.Instructions == 0 {
			t.Errorf("job %d retired no instructions", i)
		}
		if r.Domain < 0 || r.Domain >= 2 {
			t.Errorf("job %d on domain %d", i, r.Domain)
		}
		instructions += r.Instructions
	}
	if s.MaxWait() > 200 {
		t.Errorf("MaxWait = %d exceeds aging bound", s.MaxWait())
	}
	if instructions == 0 {
		t.Error("scheduled run produced empty aggregate metrics")
	}
	admits := 0
	for _, d := range s.Decisions() {
		if d.Kind == DecisionAdmit {
			admits++
		}
	}
	if admits != 3 {
		t.Errorf("decision log has %d admissions, want 3", admits)
	}

	// Cut short, the run reports its own length and leaves the service's
	// completion period at 0.
	cut, ran := RunJobs(machine.Config{Cores: 8, Domains: 2}, Config{Heuristic: caer.HeuristicRule}, lat, nil, 7, 50)
	if ran != 50 || cut.LatencyReports()[0].Done != 0 {
		t.Errorf("50-period bound: ran %d, service done at %d; want 50 and 0", ran, cut.LatencyReports()[0].Done)
	}
}

func TestRunScheduledDeterministic(t *testing.T) {
	mk := func() *Scheduler {
		s, _ := RunJobs(machine.Config{Cores: 8, Domains: 2},
			Config{Policy: PolicyRoundRobin, Heuristic: caer.HeuristicRule},
			testProfile(t, "mcf", 300_000),
			[]spec.Profile{testProfile(t, "lbm", 100_000), testProfile(t, "lbm", 100_000)}, 3, 10_000_000)
		return s
	}
	a, b := mk(), mk()
	ra, rb := a.JobReports(), b.JobReports()
	if a.LatencyReports()[0] != b.LatencyReports()[0] || a.period != b.period ||
		len(a.Decisions()) != len(b.Decisions()) || len(ra) != len(rb) {
		t.Fatal("scheduled runs with equal seeds diverged")
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Errorf("job %d diverged: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}
