// Command caer-sched demonstrates the contention-aware placement and
// admission subsystem (DESIGN.md §9): a latency-sensitive service pinned to
// domain 0 of a multi-LLC-domain machine, batch jobs flowing through the
// admission queue, and a placement policy deciding which LLC
// domain each job lands on. It prints the scheduler's decision timeline
// (admissions, migrations, completions), the per-job outcomes, and the
// latency app's quality of service.
//
// Usage:
//
//	caer-sched [-policy rr|ca|packed] [-latency mcf]
//	           [-jobs lbm,lbm,povray,lbm] [-domains N] [-cores N]
//	           [-admit-thresh F] [-aging N] [-migrate N]
//	           [-job-instr N] [-seed N] [-quick] [-telemetry addr]
//
// Examples:
//
//	caer-sched -policy rr
//	caer-sched -policy ca
//	caer-sched -policy packed -migrate 40
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/report"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "caer-sched: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("caer-sched", flag.ExitOnError)
	policy := fs.String("policy", "ca", "placement policy: rr (round-robin), ca (contention-aware), packed")
	latency := fs.String("latency", "mcf", "latency-sensitive service (short or full name)")
	jobsCSV := fs.String("jobs", "lbm,lbm,povray,lbm", "comma-separated batch jobs for the admission queue")
	domains := fs.Int("domains", 2, "number of LLC domains")
	cores := fs.Int("cores", 0, "number of cores (0 = 4 per domain)")
	admitThresh := fs.Float64("admit-thresh", 0, "admission pressure threshold (0 = default)")
	aging := fs.Int("aging", 0, "starvation aging bound in periods (0 = default)")
	migrate := fs.Int("migrate", 0, "consider one migration every N periods (0 = off)")
	jobInstr := fs.Uint64("job-instr", 500_000, "instruction count for each submitted job")
	seed := fs.Int64("seed", 1, "seed for all runs")
	quick := fs.Bool("quick", false, "shrink the latency service 8x for a fast smoke run")
	telemetryAddr := fs.String("telemetry", "", "serve live telemetry (/metrics, /trace, /debug/pprof) on this address, e.g. :6060")
	fs.Parse(args)

	if *telemetryAddr != "" {
		ln, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "[telemetry: http://%s/metrics]\n", ln.Addr())
	}

	pol, err := sched.ParsePolicy(*policy)
	if err != nil {
		return err
	}

	lat, ok := spec.ByName(*latency)
	if !ok {
		return fmt.Errorf("unknown latency benchmark %q", *latency)
	}
	if *quick {
		lat.Exec.Instructions /= 8
	}
	// Shapes that cannot drain, or that machine.New would panic on.
	if *jobInstr == 0 {
		return fmt.Errorf("-job-instr must be positive: a job with no instruction count never completes")
	}
	if *cores == 0 {
		*cores = 4 * *domains
	}
	if *domains < 1 || *cores%*domains != 0 {
		return fmt.Errorf("%d cores do not divide into %d LLC domains", *cores, *domains)
	}
	if *cores < 2 {
		return fmt.Errorf("%d core leaves none for jobs: the service holds core 0", *cores)
	}
	var jobs []spec.Profile
	for _, n := range strings.Split(*jobsCSV, ",") {
		p, ok := spec.ByName(strings.TrimSpace(n))
		if !ok {
			return fmt.Errorf("unknown job benchmark %q", n)
		}
		p.Exec.Instructions = *jobInstr
		jobs = append(jobs, p)
	}

	sd, periods := sched.RunJobs(machine.Config{Cores: *cores, Domains: *domains}, sched.Config{
		Policy:          pol,
		Heuristic:       caer.HeuristicRule,
		AdmitThreshold:  *admitThresh,
		AgingBound:      *aging,
		MigrationPeriod: *migrate,
	}, lat, jobs, *seed, 10_000_000)

	fmt.Fprintf(stdout, "caer-sched: %s policy, %s service on domain 0, %d domains x %d cores, %d jobs\n\n",
		pol, spec.ShortName(lat.Name), *domains, *cores / *domains, len(jobs))

	fmt.Fprintln(stdout, "decision timeline:")
	tl := report.NewTable("period", "decision", "job", "detail")
	completed := 0
	for _, d := range sd.Decisions() {
		var detail string
		switch d.Kind {
		case sched.DecisionAdmit:
			detail = fmt.Sprintf("-> domain %d core %d (waited %d%s, %d queued)",
				d.To, d.Core, d.Waited, agedTag(d.Aged), d.Queued)
		case sched.DecisionMigrate:
			detail = fmt.Sprintf("domain %d -> %d (core %d)", d.From, d.To, d.Core)
		case sched.DecisionComplete:
			completed++
			detail = fmt.Sprintf("freed domain %d core %d", d.From, d.Core)
		case sched.DecisionWithdraw:
			detail = fmt.Sprintf("withdrawn after waiting %d (%d queued)", d.Waited, d.Queued)
		default:
			detail = "?"
		}
		tl.AddRow(fmt.Sprintf("%d", d.Period), d.Kind.String(), d.Name, detail)
	}
	if err := tl.Render(stdout); err != nil {
		return fmt.Errorf("render timeline: %v", err)
	}

	fmt.Fprintln(stdout, "\nper-job outcomes:")
	jt := report.NewTable("job", "domain", "waited", "run", "paused", "duty", "migrations", "done@")
	for _, b := range sd.JobReports() {
		run := b.RanPeriods()
		duty := 1.0
		if run+b.PausedPeriods > 0 {
			duty = float64(run) / float64(run+b.PausedPeriods)
		}
		jt.AddRow(b.Name, fmt.Sprintf("%d", b.Domain),
			fmt.Sprintf("%d%s", b.Waited, agedTag(b.Aged)),
			fmt.Sprintf("%d", run), fmt.Sprintf("%d", b.PausedPeriods),
			report.Percent(duty), fmt.Sprintf("%d", b.Migrations),
			fmt.Sprintf("%d", b.Done))
	}
	if err := jt.Render(stdout); err != nil {
		return fmt.Errorf("render jobs: %v", err)
	}

	fmt.Fprintf(stdout, "\nlatency service finished in %d periods; %d/%d jobs completed; max queue wait %d periods; %d migrations\n",
		periods, completed, len(jobs), sd.MaxWait(), sd.Migrations())
	if sd.LatencyReports()[0].Done == 0 {
		return fmt.Errorf("latency service did not complete within the period bound")
	}
	return nil
}

func agedTag(aged bool) string {
	if aged {
		return ", aged"
	}
	return ""
}
