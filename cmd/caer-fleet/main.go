// Command caer-fleet runs the cluster-level contention-aware scheduling
// stack (DESIGN.md §14): N simulated machines — the first half hosting a
// latency-sensitive open-loop service, the rest an insensitive background
// one — fed a seeded open-loop traffic schedule, with a cross-machine
// placement policy deciding which machine each job lands on.
// It prints the fleet throughput, the cluster-wide job queueing
// distributions, and every latency app's QoS at p50/p99, plus the merged
// fleet-wide distribution of the sensitive service class.
//
// Usage:
//
//	caer-fleet [-machines N] [-policy rr|lp|packed|telemetry]
//	           [-jobs lbm,lbm,povray,lbm]
//	           [-curve constant|diurnal|burst] [-rate F] [-horizon N]
//	           [-sensitive mcf] [-background namd] [-migrate N]
//	           [-usage-thresh N] [-periods N] [-seed N] [-workers N] [-quick]
//	           [-serve addr] [-metrics-out FILE] [-trace FILE]
//
// Examples:
//
//	caer-fleet -quick
//	caer-fleet -policy rr -curve burst -rate 0.05
//	caer-fleet -policy telemetry
//	caer-fleet -machines 8 -migrate 50 -serve :6060
//
// -serve exposes the merged fleet telemetry (/metrics with machine labels,
// /trace with per-machine lane prefixes) while the run executes;
// -metrics-out writes one final Prometheus snapshot and -trace one shared
// Chrome trace covering every machine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"caer/internal/caer"
	"caer/internal/fleet"
	"caer/internal/report"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "caer-fleet: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("caer-fleet", flag.ExitOnError)
	machines := fs.Int("machines", 4, "cluster size; the first half are sensitive machines, the rest background")
	policy := fs.String("policy", "lp", "cross-machine placement policy: rr (round-robin), lp (least-pressure), packed, telemetry (least-pressure over scraped metrics)")
	jobsCSV := fs.String("jobs", "lbm,lbm,povray,lbm", "comma-separated batch job mix the traffic driver cycles through")
	curveName := fs.String("curve", "diurnal", "open-loop arrival curve: constant, diurnal, burst")
	rate := fs.Float64("rate", 0.033, "mean arrivals per period at the curve's reference level")
	horizon := fs.Int("horizon", 4000, "periods over which arrivals are generated")
	sensitive := fs.String("sensitive", "mcf", "latency-critical open-loop service on the sensitive machines")
	background := fs.String("background", "namd", "insensitive open-loop service on the background machines")
	migrate := fs.Int("migrate", 0, "evaluate one cross-machine migration every N periods (0 = off)")
	usageThresh := fs.Float64("usage-thresh", 800, "per-machine rule-heuristic usage threshold (the §6.2 tuning frontier)")
	jobInstr := fs.Uint64("job-instr", 400_000, "instruction count for each batch job")
	svcInstr := fs.Uint64("svc-instr", 1_000_000, "instruction count for one service request")
	periods := fs.Int("periods", 400_000, "hard period bound on the run")
	seed := fs.Int64("seed", 1, "seed for the traffic driver and every process")
	workers := fs.Int("workers", 4, "size of the fleet's one domain-stepper pool: every machine's LLC domains step on it together (output is identical at any size)")
	quick := fs.Bool("quick", false, "shrink instructions 4x and raise the rate to match for a fast smoke run")
	serveAddr := fs.String("serve", "", "serve merged fleet telemetry (/metrics, /trace) on this address, e.g. :6060")
	metricsOut := fs.String("metrics-out", "", "write one final Prometheus snapshot of the whole fleet to this file")
	traceOut := fs.String("trace", "", "write the shared Chrome trace (per-machine lanes) to this file")
	fs.Parse(args)

	pol, err := fleet.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	var curve fleet.Curve
	switch *curveName {
	case "constant":
		curve = fleet.CurveConstant
	case "diurnal":
		curve = fleet.CurveDiurnal
	case "burst":
		curve = fleet.CurveBurst
	default:
		return fmt.Errorf("unknown curve %q (want constant, diurnal, or burst)", *curveName)
	}
	if *machines < 1 {
		return fmt.Errorf("need at least one machine")
	}

	sens, err := profile(*sensitive)
	if err != nil {
		return err
	}
	back, err := profile(*background)
	if err != nil {
		return err
	}
	var mix []spec.Profile
	for _, n := range strings.Split(*jobsCSV, ",") {
		p, err := profile(strings.TrimSpace(n))
		if err != nil {
			return err
		}
		p.Exec.Instructions = *jobInstr
		mix = append(mix, p)
	}
	sens.Exec.Instructions = *svcInstr
	back.Exec.Instructions = *svcInstr
	traffic := fleet.Traffic{Curve: curve, Rate: *rate, Horizon: *horizon, Mix: mix}
	if *quick {
		// Scale-invariant shrink, as in the caer-bench fleet suite: every
		// job 4x shorter, arrivals 4x denser over a 4x shorter horizon.
		sens.Exec.Instructions /= 4
		back.Exec.Instructions /= 4
		for i := range mix {
			mix[i].Exec.Instructions /= 4
		}
		traffic.Rate *= 4
		traffic.Horizon /= 4
	}

	// Heterogeneous topology, as in the caer-bench fleet suite: sensitive
	// machines are small (4 cores over 2 LLC domains), background machines
	// big (8 cores over 2 domains), so placement — not per-machine response
	// — decides whether aggressors land next to the service.
	nSens := (*machines + 1) / 2
	specs := make([]fleet.MachineSpec, *machines)
	for k := range specs {
		svc := fleet.Service{Profile: sens, Core: 0, Relaunch: true}
		specs[k] = fleet.MachineSpec{Cores: 4, Domains: 2, Workers: *workers, Services: []fleet.Service{svc}}
		if k >= nSens {
			svc.Profile = back
			specs[k] = fleet.MachineSpec{Cores: 8, Domains: 2, Workers: *workers, Services: []fleet.Service{svc}}
		}
	}

	caerCfg := caer.DefaultConfig()
	caerCfg.UsageThresh = *usageThresh
	c := fleet.New(fleet.Config{
		Machines: specs,
		Sched: sched.Config{
			Policy:         sched.PolicyContentionAware,
			Heuristic:      caer.HeuristicRule,
			Caer:           caerCfg,
			PressureScale:  caer.DefaultConfig().UsageThresh,
			AdmitThreshold: 100,
		},
		Policy:        pol,
		Traffic:       traffic,
		Seed:          *seed,
		MigratePeriod: *migrate,
		MaxPeriods:    *periods,
	})

	if *serveAddr != "" {
		ln, err := c.ServeTelemetry(*serveAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "[telemetry: merged fleet /metrics and /trace on %s]\n", *serveAddr)
	}

	fmt.Fprintf(stdout, "caer-fleet: %d machines (%d x %s sensitive, %d x %s background), %s policy, %s traffic rate %.3f over %d periods\n\n",
		*machines, nSens, spec.ShortName(sens.Name),
		*machines-nSens, spec.ShortName(back.Name),
		pol, curve, traffic.Rate, traffic.Horizon)

	c.Run()
	rep := c.Report()
	if err := rep.Render(stdout); err != nil {
		return fmt.Errorf("render: %v", err)
	}
	lat := rep.MergedLatency(spec.ShortName(sens.Name))
	if lat.N() > 0 {
		fmt.Fprintf(stdout, "fleet-wide %s QoS: %d requests, p50 %.0f p99 %.0f periods\n",
			spec.ShortName(sens.Name), lat.N(), lat.Quantile(0.5), lat.Quantile(0.99))
	}

	if *metricsOut != "" {
		if err := report.WriteFile(*metricsOut, c.WriteMetrics); err != nil {
			return fmt.Errorf("metrics: %v", err)
		}
		fmt.Fprintf(stderr, "[wrote %s]\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := report.WriteFile(*traceOut, telemetry.DefaultSpans.WriteChrome); err != nil {
			return fmt.Errorf("trace: %v", err)
		}
		if d := telemetry.DefaultSpans.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "caer-fleet: span ring wrapped: the %d oldest spans are missing from %s\n", d, *traceOut)
		}
		fmt.Fprintf(stderr, "[wrote %s]\n", *traceOut)
	}
	if rep.Completed != rep.Arrivals {
		return fmt.Errorf("fleet did not drain: %d of %d jobs completed within %d periods",
			rep.Completed, rep.Arrivals, *periods)
	}
	return nil
}

func profile(name string) (spec.Profile, error) {
	p, ok := spec.ByName(name)
	if !ok {
		return p, fmt.Errorf("unknown benchmark %q", name)
	}
	return p, nil
}
