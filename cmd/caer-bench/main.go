// Command caer-bench regenerates the data figures of the CAER paper's
// evaluation (Figures 1, 2, 3, 6, 7, 8, 9, 10) on the simulated machine,
// printing each as an ASCII chart plus a data table, and optionally writing
// CSV files for external plotting. It also runs the ablations and the
// regime suites.
//
// Usage:
//
//	caer-bench [-fig all|1|2|3|6|7|8|9|10] [-csv DIR] [-seed N]
//	           [-benchmarks mcf,namd,...] [-quick]
//	           [-ablation partition,response,tuning,adversary,multiapp|all]
//	           [-<suite> ...] [-workers N]
//	           [-telemetry addr] [-telemetry-out FILE]
//
// -quick shrinks every benchmark's instruction count 8x for a fast smoke
// run; the published numbers in EXPERIMENTS.md use the full lengths.
//
// Every row of experiments.Regimes is a -<suite> flag (`caer-bench -h`
// lists them with the claim each gates; README "Regime suites" has the
// table). A suite prints its comparison table, exits non-zero unless its
// gate holds, and writes BENCH_<suite>.json into -csv DIR (else the working
// directory). Suite flags skip the figures unless -fig is set explicitly.
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
	"slices"
	"strings"
	"time"

	"caer/internal/caer"
	"caer/internal/experiments"
	"caer/internal/report"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// figure is anything caer-bench can print; one that also has a Table is
// written as CSV under -csv.
type figure interface {
	Render(io.Writer) error
}

// item is one selectable figure or ablation: its id on the command line and
// how to build it from the suite (quick scales the profiles it names).
type item struct {
	id    string
	build func(s *experiments.Suite, quick bool) figure
}

var figures = []item{
	{"1", func(s *experiments.Suite, _ bool) figure { return s.Figure1() }},
	{"2", func(s *experiments.Suite, _ bool) figure { return s.Figure2() }},
	{"3", func(s *experiments.Suite, _ bool) figure { return s.Figure3(0) }},
	{"6", func(s *experiments.Suite, _ bool) figure { return s.Figure6() }},
	{"7", func(s *experiments.Suite, _ bool) figure { return s.Figure7() }},
	{"8", func(s *experiments.Suite, _ bool) figure { return s.Figure8() }},
	{"9", func(s *experiments.Suite, _ bool) figure { return s.FigureAccuracy(true, 6) }},
	{"10", func(s *experiments.Suite, _ bool) figure { return s.FigureAccuracy(false, 6) }},
}

var ablations = []item{
	{"partition", func(s *experiments.Suite, quick bool) figure {
		return s.PartitionSweep(profile("mcf", quick), []int{4, 6, 8, 10, 12, 14})
	}},
	{"response", func(s *experiments.Suite, quick bool) figure {
		return s.ResponseComparison(profile("mcf", quick))
	}},
	{"tuning", func(s *experiments.Suite, quick bool) figure {
		return s.TuningSweep(profile("mcf", quick),
			[]float64{0.02, 0.05, 0.5, 2, 10, 25, 100},
			[]float64{50, 150, 400, 800, 1600, 3200})
	}},
	{"adversary", func(s *experiments.Suite, quick bool) figure {
		lats := []spec.Profile{profile("mcf", quick), profile("xalancbmk", quick), profile("namd", quick)}
		advs := []spec.Profile{profile("lbm", false), profile("libquantum", false), profile("milc", false)}
		return s.AdversarySweep(lats, advs, caer.HeuristicRule)
	}},
	{"multiapp", func(s *experiments.Suite, quick bool) figure {
		return s.MultiApp(
			[2]spec.Profile{profile("mcf", quick), profile("soplex", quick)},
			[2]spec.Profile{spec.LBM(), spec.LBM()},
			caer.HeuristicRule)
	}},
}

// selectItems resolves a comma-separated id list against table: "all"
// selects every row, "" none, and the result keeps table order. An id the
// table does not have is an error naming the valid set.
func selectItems(list string, table []item) ([]item, error) {
	if list == "" {
		return nil, nil
	}
	valid := []string{"all"}
	for _, it := range table {
		valid = append(valid, it.id)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown id %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var out []item
	for _, it := range table {
		if want["all"] || want[it.id] {
			out = append(out, it)
		}
	}
	return out, nil
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 1, 2, 3, 6, 7, 8, 9, 10")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files and suite artifacts into")
	seed := flag.Int64("seed", 1, "seed for all runs")
	benches := flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 21)")
	quick := flag.Bool("quick", false, "shrink benchmark lengths 8x for a fast smoke run")
	ablation := flag.String("ablation", "", "additionally run ablations: partition, response, tuning, adversary, multiapp (comma-separated or 'all')")
	suiteFlags := make([]*bool, len(experiments.Regimes))
	for i, r := range experiments.Regimes {
		suiteFlags[i] = flag.Bool(r.Name, false, "run the "+r.Help+" (skips figures unless -fig is set explicitly)")
	}
	workers := flag.Int("workers", 4, "domain-stepper worker pool size for the fleet and slo suites")
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

	var suites []string
	for i, r := range experiments.Regimes {
		if *suiteFlags[i] {
			suites = append(suites, r.Name)
		}
	}
	figSetExplicitly := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "fig" {
			figSetExplicitly = true
		}
	})
	figList := *fig
	if len(suites) > 0 && !figSetExplicitly {
		figList = ""
	}
	wantFigs, err := selectItems(figList, figures)
	if err != nil {
		fatalf("-fig: %v", err)
	}
	wantAbls, err := selectItems(*ablation, ablations)
	if err != nil {
		fatalf("-ablation: %v", err)
	}

	suite := experiments.NewSuite()
	suite.Seed = *seed
	suite.Benchmarks = selectBenchmarks(*benches, *quick)

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatalf("create csv dir: %v", err)
		}
	}
	out := os.Stdout
	start := time.Now()

	emit := func(name string, f figure) {
		fmt.Fprintf(out, "\n")
		if err := f.Render(out); err != nil {
			fatalf("render figure %s: %v", name, err)
		}
		if t, ok := f.(interface{ Table() *report.Table }); ok && *csvDir != "" {
			path := filepath.Join(*csvDir, "figure"+name+".csv")
			if err := report.WriteFile(path, t.Table().WriteCSV); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(out, "[wrote %s]\n", path)
		}
	}
	for _, it := range wantFigs {
		emit(it.id, it.build(suite, *quick))
	}
	for _, it := range wantAbls {
		emit("-ablation-"+it.id, it.build(suite, *quick))
	}
	if err := experiments.RunRegimes(out, suites, *seed, *quick, *workers, *csvDir); err != nil {
		fatalf("%v", err)
	}
	if *telemetryOut != "" {
		if err := report.WriteFile(*telemetryOut, telemetry.WriteSnapshot); err != nil {
			fatalf("telemetry snapshot: %v", err)
		}
		fmt.Fprintf(out, "[wrote %s]\n", *telemetryOut)
	}
	fmt.Fprintf(out, "\n[%s elapsed]\n", time.Since(start).Round(time.Millisecond))
}

// profile returns the named benchmark, shrunk 8x under quick.
func profile(name string, quick bool) spec.Profile {
	p, ok := spec.ByName(name)
	if !ok {
		fatalf("unknown benchmark %q", name)
	}
	if quick {
		p.Exec.Instructions /= 8
	}
	return p
}

func selectBenchmarks(csv string, quick bool) []spec.Profile {
	var out []spec.Profile
	if csv == "" {
		out = spec.All()
	} else {
		for _, n := range strings.Split(csv, ",") {
			out = append(out, profile(strings.TrimSpace(n), false))
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
