// Command caer-bench regenerates the data figures of the CAER paper's
// evaluation (Figures 1, 2, 3, 6, 7, 8, 9, 10) on the simulated machine,
// printing each as an ASCII chart plus a data table, and optionally writing
// CSV files for external plotting.
//
// Usage:
//
//	caer-bench [-fig all|1|2|3|6|7|8|9|10] [-csv DIR] [-seed N]
//	           [-benchmarks mcf,namd,...] [-quick]
//	           [-ablation partition,response,tuning,adversary,multiapp|all]
//	           [-chaos] [-sched] [-sampling] [-fleet] [-slo]
//	           [-partition] [-workers N]
//	           [-telemetry addr] [-telemetry-out FILE]
//
// -quick shrinks every benchmark's instruction count 8x for a fast smoke
// run; the published numbers in EXPERIMENTS.md use the full lengths.
//
// -chaos runs the fault-injection regime suite (DESIGN.md §8): every fault
// class (counter resets, spikes, dropped samples, probe jitter, monitor
// crashes) against the shutter, rule-based, and hybrid pairings. When -fig
// is not given explicitly, -chaos skips the figures and prints only the
// chaos table.
//
// -sched runs the scheduler regime suite (DESIGN.md §9): the same latency
// service and job mix compared across placement policies on a 2-LLC-domain
// machine, printed as a table and written as machine-readable
// BENCH_sched.json (into -csv DIR when given, else the working directory).
// Like -chaos, it skips the figures unless -fig is set explicitly.
//
// -sampling runs the detection-latency-vs-overhead sweep (DESIGN.md §13):
// a fixed seeded contention-burst trace replayed under every-period
// polling, the adaptive interval controller at several max-interval
// bounds, and threshold-interrupt mode. It exits non-zero unless every
// mode flags every burst with no false flags and the event-driven modes
// spend strictly fewer probes than polling, and writes the sweep as
// machine-readable BENCH_sampling.json (into -csv DIR when given, else
// the working directory). Skips figures unless -fig is set explicitly.
//
// -fleet runs the fleet regime suite (DESIGN.md §14): a heterogeneous
// 4-machine cluster — two small machines hosting a sensitive mcf open-loop
// service, two large ones an insensitive namd service — fed an identical
// seeded diurnal, lbm-heavy traffic schedule under each cross-machine
// placement policy. It exits non-zero unless least-pressure placement
// strictly beats round-robin on the sensitive service's p99 request latency
// at equal admitted throughput, and writes the comparison as
// machine-readable BENCH_fleet.json (into -csv DIR when given, else the
// working directory). Skips figures unless -fig is set explicitly.
//
// -partition runs the partition regime suite (DESIGN.md §16): a
// cache-sensitive omnetpp service sharing one LLC domain with
// capacity-thief batch jobs, compared across the response family —
// red-light/green-light and soft-lock throttling, LFOC-style LLC
// way-partitioning, and the hybrid of both — at equal admitted throughput.
// It exits non-zero unless the partition response strictly beats both
// pure-throttling responses on latency QoS degradation with an earlier
// batch makespan, and writes the comparison as machine-readable
// BENCH_partition.json (into -csv DIR when given, else the working
// directory). Skips figures unless -fig is set explicitly.
//
// -slo runs the SLO regime suite (DESIGN.md §15): the fleet-suite cluster
// with every node's burn-rate SLO engine armed, compared across
// least-pressure, telemetry-fed, and forced-scrape-outage placement, plus
// a seeded-violation alert battery (scripted CAER-M monitor outages on a
// single machine). It exits non-zero unless telemetry-fed placement
// matches or beats least-pressure on the sensitive p99 at equal admitted
// throughput, the outage run reproduces least-pressure exactly, and the
// battery raises exactly one firing alert per seeded violation with zero
// false positives. Writes BENCH_slo.json plus the caer-doctor bundle
// (SLO_series.json, SLO_events.json, SLO_trace.json, SLO_objectives.json)
// into -csv DIR when given, else the working directory. Skips figures
// unless -fig is set explicitly.
//
// Host-time performance (per-layer cost, periods/s, worker-pool speedup) is
// measured by the repository benchmark in benchmark/, not by this command.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"caer/internal/caer"
	"caer/internal/experiments"
	"caer/internal/report"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 2, 3, 6, 7, 8, 9, 10")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files into")
	seed := flag.Int64("seed", 1, "seed for all runs")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 21)")
	quick := flag.Bool("quick", false, "shrink benchmark lengths 8x for a fast smoke run")
	ablation := flag.String("ablation", "", "additionally run ablations: partition, response, tuning, adversary, multiapp (comma-separated or 'all')")
	chaos := flag.Bool("chaos", false, "run the fault-injection regime suite (skips figures unless -fig is set explicitly)")
	schedFlag := flag.Bool("sched", false, "run the scheduler regime suite and write BENCH_sched.json (skips figures unless -fig is set explicitly)")
	samplingFlag := flag.Bool("sampling", false, "run the sampling-mode sweep and write BENCH_sampling.json (skips figures unless -fig is set explicitly)")
	fleetFlag := flag.Bool("fleet", false, "run the fleet regime suite and write BENCH_fleet.json (skips figures unless -fig is set explicitly)")
	partitionFlag := flag.Bool("partition", false, "run the partition regime suite and write BENCH_partition.json (skips figures unless -fig is set explicitly)")
	sloFlag := flag.Bool("slo", false, "run the SLO regime suite and write BENCH_slo.json plus the caer-doctor bundle (skips figures unless -fig is set explicitly)")
	workers := flag.Int("workers", 4, "domain-stepper worker pool size for -sched, -fleet, -slo, and -partition")
	telemetryAddr := flag.String("telemetry", "", "serve live telemetry (/metrics, /trace, /debug/pprof) on this address, e.g. :6060")
	telemetryOut := flag.String("telemetry-out", "", "write a Prometheus-text telemetry snapshot to this file after the run")
	flag.Parse()

	if *telemetryAddr != "" {
		ln, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			fatalf("telemetry: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "[telemetry: http://%s/metrics]\n", ln.Addr())
	}

	figSetExplicitly := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fig" {
			figSetExplicitly = true
		}
	})

	suite := experiments.NewSuite()
	suite.Seed = *seed
	suite.Benchmarks = selectBenchmarks(*benches, *quick)

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("create csv dir: %v", err)
		}
	}

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	if (*chaos || *schedFlag || *samplingFlag || *fleetFlag || *sloFlag || *partitionFlag) && !figSetExplicitly {
		want = map[string]bool{}
	}
	all := want["all"]
	out := os.Stdout
	start := time.Now()

	type figure interface {
		Render(io.Writer) error
	}
	type tabled interface {
		Table() *report.Table
	}
	emit := func(id string, f figure) {
		fmt.Fprintf(out, "\n")
		if err := f.Render(out); err != nil {
			fatalf("render figure %s: %v", id, err)
		}
		if t, ok := f.(tabled); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, "figure"+id+".csv")
			fh, err := os.Create(path)
			if err != nil {
				fatalf("create %s: %v", path, err)
			}
			if err := t.Table().WriteCSV(fh); err != nil {
				fatalf("write %s: %v", path, err)
			}
			fh.Close()
			fmt.Fprintf(out, "[wrote %s]\n", path)
		}
	}

	if all || want["1"] {
		emit("1", suite.Figure1())
	}
	if all || want["2"] {
		emit("2", suite.Figure2())
	}
	if all || want["3"] {
		emit("3", suite.Figure3(0))
	}
	if all || want["6"] {
		emit("6", suite.Figure6())
	}
	if all || want["7"] {
		emit("7", suite.Figure7())
	}
	if all || want["8"] {
		emit("8", suite.Figure8())
	}
	if all || want["9"] {
		emit("9", suite.FigureAccuracy(true, 6))
	}
	if all || want["10"] {
		emit("10", suite.FigureAccuracy(false, 6))
	}

	if *ablation != "" {
		wantAbl := map[string]bool{}
		for _, a := range strings.Split(*ablation, ",") {
			wantAbl[strings.TrimSpace(a)] = true
		}
		allAbl := wantAbl["all"]
		mcf, ok := spec.ByName("mcf")
		if !ok {
			fatalf("mcf profile missing")
		}
		if *quick {
			mcf.Exec.Instructions /= 8
		}
		if allAbl || wantAbl["partition"] {
			emit("-ablation-partition", suite.PartitionSweep(mcf, []int{4, 6, 8, 10, 12, 14}))
		}
		if allAbl || wantAbl["response"] {
			emit("-ablation-response", suite.ResponseComparison(mcf))
		}
		if allAbl || wantAbl["tuning"] {
			emit("-ablation-tuning", suite.TuningSweep(mcf,
				[]float64{0.02, 0.05, 0.5, 2, 10, 25, 100},
				[]float64{50, 150, 400, 800, 1600, 3200}))
		}
		if allAbl || wantAbl["adversary"] {
			latNames := []string{"mcf", "xalancbmk", "namd"}
			var lats []spec.Profile
			for _, n := range latNames {
				p, _ := spec.ByName(n)
				if *quick {
					p.Exec.Instructions /= 8
				}
				lats = append(lats, p)
			}
			advNames := []string{"lbm", "libquantum", "milc"}
			var advs []spec.Profile
			for _, n := range advNames {
				p, _ := spec.ByName(n)
				advs = append(advs, p)
			}
			emit("-ablation-adversary", suite.AdversarySweep(lats, advs, caer.HeuristicRule))
		}
		if allAbl || wantAbl["multiapp"] {
			soplex, _ := spec.ByName("soplex")
			if *quick {
				soplex.Exec.Instructions /= 8
			}
			emit("-ablation-multiapp", suite.MultiApp(
				[2]spec.Profile{mcf, soplex},
				[2]spec.Profile{spec.LBM(), spec.LBM()},
				caer.HeuristicRule))
		}
	}
	if *chaos {
		fmt.Fprintf(out, "\nChaos regimes (fault injection, DESIGN.md §8)\n\n")
		reports := experiments.ChaosSuite(*seed, *quick)
		experiments.WriteChaosReport(out, reports)
		for _, r := range reports {
			if !r.Completed {
				fatalf("fail-open violation: %s/%s never completed", r.Heuristic, r.Fault)
			}
			if r.DegradedAtEnd {
				fatalf("fail-open violation: %s/%s still degraded after faults ceased", r.Heuristic, r.Fault)
			}
		}
		fmt.Fprintf(out, "\nall regimes fail open: latency app completed under every fault class\n")
	}
	if *schedFlag {
		fmt.Fprintf(out, "\n")
		regime := experiments.SchedRegimeSuiteWorkers(*seed, *quick, *workers)
		if err := regime.Render(out); err != nil {
			fatalf("render scheduler regimes: %v", err)
		}
		path := "BENCH_sched.json"
		if *csvDir != "" {
			path = filepath.Join(*csvDir, path)
		}
		fh, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", path, err)
		}
		if err := regime.WriteJSON(fh); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fh.Close()
		fmt.Fprintf(out, "[wrote %s]\n", path)
	}
	if *samplingFlag {
		fmt.Fprintf(out, "\n")
		sweep := experiments.SamplingSuite(*seed, *quick)
		if err := sweep.Render(out); err != nil {
			fatalf("render sampling sweep: %v", err)
		}
		if err := sweep.Check(); err != nil {
			fatalf("sampling gate violation: %v", err)
		}
		fmt.Fprintf(out, "sampling gate holds: every mode flagged %d/%d bursts; event-driven modes probed less than polling\n",
			sweep.Bursts, sweep.Bursts)
		path := "BENCH_sampling.json"
		if *csvDir != "" {
			path = filepath.Join(*csvDir, path)
		}
		fh, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", path, err)
		}
		if err := sweep.WriteJSON(fh); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fh.Close()
		fmt.Fprintf(out, "[wrote %s]\n", path)
	}
	if *fleetFlag {
		fmt.Fprintf(out, "\n")
		regime := experiments.FleetSuiteWorkers(*seed, *quick, *workers)
		if err := regime.Render(out); err != nil {
			fatalf("render fleet regimes: %v", err)
		}
		if err := regime.Check(); err != nil {
			fatalf("fleet gate violation: %v", err)
		}
		fmt.Fprintf(out, "fleet gate holds: least-pressure beats round-robin on sensitive-service p99 at equal admitted throughput\n")
		path := "BENCH_fleet.json"
		if *csvDir != "" {
			path = filepath.Join(*csvDir, path)
		}
		fh, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", path, err)
		}
		if err := regime.WriteJSON(fh); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fh.Close()
		fmt.Fprintf(out, "[wrote %s]\n", path)
	}
	if *partitionFlag {
		fmt.Fprintf(out, "\n")
		regime := experiments.PartitionSuiteWorkers(*seed, *quick, *workers)
		if err := regime.Render(out); err != nil {
			fatalf("render partition regimes: %v", err)
		}
		if err := regime.Check(); err != nil {
			fatalf("partition gate violation: %v", err)
		}
		fmt.Fprintf(out, "partition gate holds: way-partitioning beats pure throttling on latency QoS with an earlier batch makespan at equal admitted throughput\n")
		path := "BENCH_partition.json"
		if *csvDir != "" {
			path = filepath.Join(*csvDir, path)
		}
		fh, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", path, err)
		}
		if err := regime.WriteJSON(fh); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fh.Close()
		fmt.Fprintf(out, "[wrote %s]\n", path)
	}
	if *sloFlag {
		fmt.Fprintf(out, "\n")
		regime := experiments.SLOSuiteWorkers(*seed, *quick, *workers)
		if err := regime.Render(out); err != nil {
			fatalf("render slo regimes: %v", err)
		}
		if err := regime.Check(); err != nil {
			fatalf("slo gate violation: %v", err)
		}
		fmt.Fprintf(out, "slo gate holds: telemetry placement matches or beats least-pressure on sensitive p99, outage degrades exactly, every seeded violation fired exactly once\n")
		dir := "."
		if *csvDir != "" {
			dir = *csvDir
		}
		path := filepath.Join(dir, "BENCH_slo.json")
		fh, err := os.Create(path)
		if err != nil {
			fatalf("create %s: %v", path, err)
		}
		if err := regime.WriteJSON(fh); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fh.Close()
		fmt.Fprintf(out, "[wrote %s]\n", path)
		if err := regime.WriteDoctorBundle(dir); err != nil {
			fatalf("write doctor bundle: %v", err)
		}
		fmt.Fprintf(out, "[wrote %s]\n", filepath.Join(dir, "SLO_{series,events,trace,objectives}.json"))
	}
	if *telemetryOut != "" {
		fh, err := os.Create(*telemetryOut)
		if err != nil {
			fatalf("create %s: %v", *telemetryOut, err)
		}
		if err := telemetry.WriteSnapshot(fh); err != nil {
			fatalf("write telemetry snapshot: %v", err)
		}
		fh.Close()
		fmt.Fprintf(out, "[wrote %s]\n", *telemetryOut)
	}
	fmt.Fprintf(out, "\n[%s elapsed]\n", time.Since(start).Round(time.Millisecond))
}

func selectBenchmarks(csv string, quick bool) []spec.Profile {
	var out []spec.Profile
	if csv == "" {
		out = spec.All()
	} else {
		for _, n := range strings.Split(csv, ",") {
			p, ok := spec.ByName(strings.TrimSpace(n))
			if !ok {
				fatalf("unknown benchmark %q", n)
			}
			out = append(out, p)
		}
	}
	if quick {
		for i := range out {
			out[i].Exec.Instructions /= 8
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caer-bench: "+format+"\n", args...)
	os.Exit(1)
}
