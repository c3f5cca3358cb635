// Command benchmark is this repository's benchmark: five workloads, eight
// bounded end-to-end metrics and a traced run that attributes the time to
// layers, all from outside the system through its public entry points.
// See README.md in this directory.
//
//	go run . -seed 1 -trace 1             every workload, measured then traced
//	go run . -workload pair_miss -trace 0 one workload, one JSON line (the driver's form)
//	go run . -compare old.json new.json   per-metric delta table, exit 1 on a regression
//
// Every number is host time unless its name starts with sim; simulated
// statistics are exact and repeat bit for bit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// report is one invocation's full result, the unit history.jsonl stores.
type report struct {
	Seed      int64                      `json:"seed"`
	Seconds   float64                    `json:"seconds"`
	Scale     uint64                     `json:"scale"`
	Host      host                       `json:"host"`
	Correct   bool                       `json:"correct"`
	Attempted int                        `json:"attempted"`
	Failed    int                        `json:"failed"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// traceDir is where the traced run writes its Chrome traces.
const traceDir = "benchmark/out"

// options are one run's settings. Only names, seed, seconds and trace are
// flags; the rest exist for the smoke test, which runs every workload at a
// fraction of its size.
type options struct {
	names   []string // workload names, in order
	seed    int64
	seconds float64
	// trace adds, after the untraced reps, the traced rep and the probes
	// that fill the per-layer metrics.
	trace bool
	// scale divides every workload's simulated work; 1 outside the test.
	scale uint64
	// reps is the fewest untraced reps per workload; minReps outside the test.
	reps int
	// outDir receives the Chrome traces; traceDir outside the test.
	outDir string
}

// run measures the named workloads and, when asked, traces them.
func run(o options) (*report, error) {
	var ws []workload
	for _, n := range o.names {
		w, ok := workloadByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	rep := &report{Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Host: fingerprint(),
		Workloads: map[string]*workloadResult{}}
	ref, err := newHostRef(o.scale)
	if err != nil {
		return nil, err
	}
	defer ref.close() // an unmap of our own mapping cannot fail
	untracedBy := runRounds(ws, ref, o.seed, o.scale, o.seconds, o.reps)
	for _, w := range ws {
		r := endToEndResult(untracedBy[w.name])
		rep.Workloads[w.name] = r
		if o.trace {
			if err := tracedRun(w, ref, o.seed, o.scale, r, o.outDir); err != nil {
				return nil, fmt.Errorf("trace %s: %w", w.name, err)
			}
		}
	}
	// The paper's sensitivity ordering needs both pairs in one run.
	if miss, hit := rep.Workloads["pair_miss"], rep.Workloads["pair_hit"]; miss != nil && hit != nil {
		miss.checks = append(miss.checks, check{"shape/pair_miss native penalty > pair_hit", miss.sim.PenaltyNative > hit.sim.PenaltyNative})
	}
	rep.Correct = true
	for _, r := range rep.Workloads {
		r.settle()
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Correct = rep.Correct && r.Correct
	}
	return rep, nil
}

// printTable writes every workload × metric by name with its unit.
func printTable(rep *report, names []string) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	for _, n := range names {
		r := rep.Workloads[n]
		fmt.Fprintf(tw, "== %s\tchecks %d\tfailed %d\t%v\traw wall_s %.4g at host speed %.3f\n",
			n, r.Attempted, r.Failed, r.FailedChecks, r.rawWallS, r.hostSpeed)
		fmt.Fprintf(tw, "metric\tvalue\tunit\tq1\tq3\tn\n")
		for _, d := range endToEnd {
			v := r.EndToEnd[d.Name]
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\n", d.Name, v.Value, v.Unit, v.Q1, v.Q3, v.N)
		}
		if r.PerLayer != nil {
			for _, d := range perLayer {
				v := r.PerLayer[d.Name]
				fmt.Fprintf(tw, "%s\t%.6g\t%s\t\t\t\n", d.Name, v.Value, v.Unit)
			}
		}
	}
	tw.Flush()
	fmt.Println("n is the sample count behind each median; below 20 no percentile above the median has ten samples beyond it, so none is reported.")
}

// driverLine is the single-workload result the driver reads: exactly the
// keys correct, attempted, failed and metrics.
func driverLine(r *workloadResult, trace bool) ([]byte, error) {
	src, defs := r.EndToEnd, endToEnd
	if trace {
		src, defs = r.PerLayer, perLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		ms[d.Name] = mv{src[d.Name].Value, src[d.Name].Unit}
	}
	return json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": ms,
	})
}

func writeJSONFile(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload name, a comma-separated list of names, or all")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 12, "how long each workload's untraced reps measure")
		trace        = flag.Int("trace", 0, "1: after the untraced reps, make the traced rep and report the per-layer metrics")
		outFile      = flag.String("out", "", "write the full result as JSON here")
		compare      = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json|history.jsonl new.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	// Closed loop of one client on at most min(nproc, 4) threads.
	runtime.GOMAXPROCS(maxWorkers())
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1, and no other argument given")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, reps: minReps, outDir: traceDir}
	if *workloadFlag == "all" {
		for _, w := range workloads {
			o.names = append(o.names, w.name)
		}
	} else {
		o.names = strings.Split(*workloadFlag, ",")
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	printTable(rep, o.names)
	if *outFile != "" {
		if err := writeJSONFile(*outFile, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	// The last line: one workload's result in the driver's form, or the
	// totals of several.
	var line []byte
	if len(o.names) == 1 {
		line, err = driverLine(rep.Workloads[o.names[0]], o.trace)
	} else {
		names := append([]string(nil), o.names...)
		sort.Strings(names)
		line, err = json.Marshal(map[string]any{
			"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "workloads": names,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	// The driver's form reports failed checks in the line and exits 0; the
	// several-workload form is what CI gates on.
	if len(o.names) > 1 && !rep.Correct {
		os.Exit(1)
	}
}
