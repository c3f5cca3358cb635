// Command caer-run is the single-machine front door. It executes one
// co-location scenario — a latency-sensitive benchmark next to a batch
// adversary, either unmanaged or under a CAER heuristic — and prints the
// paper's metrics for it; with -series it dumps the benchmark's per-period
// PMU time series instead (the raw data behind the paper's Figure 3); with
// -workloads it characterises the synthetic SPEC2006-like suite.
//
// Usage:
//
//	caer-run -latency mcf [-batch lbm] [-mode caer|colo|alone] [-seed N]
//	         [-heuristic rule|shutter|random|hybrid] [-adaptive] [-dvfs N]
//	         [-usage-thresh N] [-impact F] [-log N] [-trace-out FILE]
//	         [-telemetry addr]
//	caer-run -latency mcf -mode alone|colo -series csv|spark|hist|phases
//	         [-periods N] [-seed N]
//	caer-run -workloads [-latency mcf] [-periods N]
//
// A flag the selected invocation would not read is an error, not a no-op.
//
// Examples:
//
//	caer-run -latency mcf -mode caer -heuristic rule -trace-out trace.json
//	caer-run -latency xalancbmk -mode colo -series spark -periods 500
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"

	"caer/internal/caer"
	"caer/internal/report"
	"caer/internal/runner"
	"caer/internal/spec"
	"caer/internal/stats"
	"caer/internal/telemetry"
)

// The -workloads measurement: every profile alone at a fixed seed, sampled
// for a window of periods after the cold-start transient.
const (
	workloadsSeed    = 42
	workloadsWarmup  = 50
	workloadsPeriods = 300
)

// caerOnly are the flags only a -mode caer scenario reads.
var caerOnly = map[string]bool{
	"heuristic": true, "adaptive": true, "dvfs": true, "usage-thresh": true,
	"impact": true, "log": true, "trace-out": true,
}

// workloadsFlags are the flags -workloads reads.
var workloadsFlags = map[string]bool{"workloads": true, "latency": true, "periods": true, "telemetry": true}

var heuristics = map[string]caer.HeuristicKind{
	"shutter": caer.HeuristicShutter,
	"rule":    caer.HeuristicRule,
	"random":  caer.HeuristicRandom,
	"hybrid":  caer.HeuristicHybrid,
}

var modes = map[string]runner.Mode{
	"alone": runner.ModeAlone,
	"colo":  runner.ModeNativeColo,
	"caer":  runner.ModeCAER,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "caer-run: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("caer-run", flag.ExitOnError)
	latency := fs.String("latency", "mcf", "latency-sensitive benchmark (short or full name); with -workloads, inspect only this one")
	batch := fs.String("batch", "lbm", "batch adversary benchmark")
	modeName := fs.String("mode", "caer", "execution mode: alone, colo, caer")
	heuristic := fs.String("heuristic", "rule", "CAER heuristic: shutter, rule, random, hybrid")
	seed := fs.Int64("seed", 1, "seed for all runs")
	adaptive := fs.Bool("adaptive", false, "use the adaptive red-light/green-light response")
	dvfs := fs.Int("dvfs", 0, "respond by down-clocking to 1/N speed instead of pausing (0 = pause)")
	usageThresh := fs.Float64("usage-thresh", 0, "override the rule-based usage threshold")
	impact := fs.Float64("impact", 0, "override the shutter impact factor (QoS knob)")
	logTail := fs.Int("log", 0, "print the batch engine's last N decision spans (detect, shutter, hold, degraded) after the run")
	traceOut := fs.String("trace-out", "", "write the run's detection-pipeline spans (probe, publish, detect, hold, ...) as Chrome trace-event JSON to this file")
	series := fs.String("series", "", "instead of the metrics, dump the latency benchmark's per-period LLC misses and instructions retired (-mode alone, or colo next to lbm): csv, spark, hist or phases")
	periods := fs.Int("periods", 0, "periods to sample with -series (0 = run to completion) or -workloads (0 = 300, after 50 warm-up)")
	workloads := fs.Bool("workloads", false, "instead of a scenario, print every benchmark profile's class, execution parameters and measured alone-run characteristics")
	telemetryAddr := fs.String("telemetry", "", "serve live telemetry (/metrics, /trace, /debug/pprof) on this address, e.g. :6060")
	fs.Parse(args)

	mode, ok := modes[*modeName]
	if !ok {
		return fmt.Errorf("unknown mode %q (want alone, colo or caer)", *modeName)
	}
	set := make(map[string]bool)
	var misuse error
	fs.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		switch {
		case misuse != nil:
		case *workloads && !workloadsFlags[f.Name]:
			misuse = fmt.Errorf("-%s has no meaning with -workloads", f.Name)
		case caerOnly[f.Name] && mode != runner.ModeCAER:
			misuse = fmt.Errorf("-%s is only read in -mode caer, not -mode %s", f.Name, *modeName)
		case f.Name == "series" && mode == runner.ModeCAER:
			misuse = fmt.Errorf("-series has no meaning in -mode caer (want -mode alone or -mode colo)")
		case f.Name == "batch" && *series != "":
			misuse = fmt.Errorf("-batch has no meaning with -series (the colo co-runner is lbm)")
		case f.Name == "periods" && *series == "" && !*workloads:
			misuse = fmt.Errorf("-periods needs -series or -workloads")
		case f.Name == "dvfs" && (*dvfs < 0 || *dvfs == 1):
			misuse = fmt.Errorf("-dvfs %d: want 0 (pause) or a clock divisor >= 2", *dvfs)
		case f.Name == "log" && *logTail < 0, f.Name == "periods" && *periods < 0:
			misuse = fmt.Errorf("-%s %s: want a count >= 0", f.Name, f.Value)
		case f.Name == "usage-thresh" && !finite(*usageThresh), f.Name == "impact" && !finite(*impact):
			misuse = fmt.Errorf("-%s %s: want a finite value >= 0 (0 = the default)", f.Name, f.Value)
		}
	})
	if misuse != nil {
		return misuse
	}
	heur, ok := heuristics[*heuristic]
	if !ok {
		return fmt.Errorf("unknown heuristic %q (want shutter, rule, random or hybrid)", *heuristic)
	}

	if *telemetryAddr != "" {
		ln, err := telemetry.Serve(*telemetryAddr)
		if err != nil {
			return fmt.Errorf("telemetry: %v", err)
		}
		defer ln.Close()
		fmt.Fprintf(stderr, "[telemetry: http://%s/metrics]\n", ln.Addr())
	}

	if *workloads {
		profiles := spec.All()
		if set["latency"] {
			p, ok := spec.ByName(*latency)
			if !ok {
				return fmt.Errorf("unknown benchmark %q", *latency)
			}
			profiles = []spec.Profile{p}
		}
		if *periods == 0 {
			*periods = workloadsPeriods
		}
		return printWorkloads(stdout, profiles, *periods)
	}

	lat, ok := spec.ByName(*latency)
	if !ok {
		return fmt.Errorf("unknown latency benchmark %q", *latency)
	}
	if *series != "" {
		render, ok := seriesFormats[*series]
		if !ok {
			return fmt.Errorf("unknown series format %q (want csv, spark, hist or phases)", *series)
		}
		misses, retired := runner.Sample(lat, *seed, mode == runner.ModeNativeColo, 0, *periods)
		return render(stdout, lat.Name, misses, retired)
	}
	bat, ok := spec.ByName(*batch)
	if !ok {
		return fmt.Errorf("unknown batch benchmark %q", *batch)
	}

	cfg := caer.DefaultConfig()
	cfg.AdaptiveResponse = *adaptive
	if *usageThresh > 0 {
		cfg.UsageThresh = *usageThresh
	}
	if *impact > 0 {
		cfg.ImpactFactor = *impact
	}
	s := runner.Scenario{Latency: lat, Batch: bat, Mode: mode, Heuristic: heur, Seed: *seed, Config: cfg}
	if *dvfs > 0 {
		s.Actuator = caer.DVFSActuator(*dvfs)
	}

	r := runner.Run(s)
	var decisions []telemetry.Span
	if *logTail > 0 {
		decisions = decisionSpans(telemetry.DefaultSpans, *logTail)
	}
	if *traceOut != "" {
		if err := report.WriteFile(*traceOut, telemetry.DefaultSpans.WriteChrome); err != nil {
			return fmt.Errorf("trace: %v", err)
		}
		if d := telemetry.DefaultSpans.Dropped(); d > 0 {
			fmt.Fprintf(stderr, "caer-run: span ring wrapped: the %d oldest spans are missing from %s\n", d, *traceOut)
		}
		fmt.Fprintf(stderr, "[wrote %s: chrome trace, load in chrome://tracing or Perfetto]\n", *traceOut)
	}
	alone := r
	if mode != runner.ModeAlone {
		alone = runner.Run(runner.Scenario{Latency: lat, Mode: runner.ModeAlone, Seed: *seed})
	}

	fmt.Fprintf(stdout, "scenario: %s vs %s, mode %s", lat.Name, bat.Name, s.Mode)
	if mode == runner.ModeCAER {
		fmt.Fprintf(stdout, " (%s)", s.Heuristic)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "  periods:                  %d (alone: %d)\n", r.Periods, alone.Periods)
	fmt.Fprintf(stdout, "  slowdown vs alone:        %s\n", report.Times(runner.Slowdown(r, alone)))
	fmt.Fprintf(stdout, "  latency app instructions: %d (LLC misses %d)\n", r.LatencyInstructions, r.LatencyMisses)
	if mode != runner.ModeAlone {
		fmt.Fprintf(stdout, "  batch instructions:       %d (LLC misses %d)\n", r.BatchInstructions, r.BatchMisses)
		fmt.Fprintf(stdout, "  utilization gained:       %s\n", report.Percent(runner.UtilizationGained(r)))
	}
	if mode == runner.ModeCAER {
		fmt.Fprintf(stdout, "  verdicts:                 %d contention / %d clear\n", r.CPositive, r.CNegative)
		fmt.Fprintf(stdout, "  batch paused:             %d periods (%s of run)\n",
			r.PausedPeriods, report.Percent(float64(r.PausedPeriods)/float64(r.Periods)))
		colo := runner.Run(runner.Scenario{Latency: lat, Batch: bat, Mode: runner.ModeNativeColo, Seed: *seed})
		if colo.Periods > alone.Periods {
			fmt.Fprintf(stdout, "  interference eliminated:  %s (native colo was %s)\n",
				report.Percent(runner.InterferenceEliminated(r, colo, alone)),
				report.Times(runner.Slowdown(colo, alone)))
		}
		if *logTail > 0 {
			fmt.Fprintf(stdout, "  last %d engine decisions:\n", len(decisions))
			for _, sp := range decisions {
				fmt.Fprintf(stdout, "    p%06d %-8s periods=%d value=%g\n", sp.Start, sp.Kind, sp.Periods, sp.Value)
			}
		}
	}
	return nil
}

// finite reports whether v is a usable threshold override: at least 0 and
// not +Inf (a NaN or +Inf threshold would switch detection off outright).
func finite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// decisionSpans returns, oldest first, the last n decision spans (detect,
// shutter, hold, degraded) recorded on a batch engine's lane — the same
// records -trace-out writes. A phase still open when the run ended has no
// span yet.
func decisionSpans(rec *telemetry.SpanRecorder, n int) []telemetry.Span {
	kinds := []telemetry.SpanKind{telemetry.SpanDetect, telemetry.SpanShutter, telemetry.SpanHold, telemetry.SpanDegraded}
	all := rec.Spans()
	var out []telemetry.Span
	for i := len(all) - 1; i >= 0 && len(out) < n; i-- {
		if sp := all[i]; slices.Contains(kinds, sp.Kind) && strings.HasPrefix(rec.TrackName(sp.Track), "batch/") {
			out = append(out, sp)
		}
	}
	slices.Reverse(out)
	return out
}

// Phase detection over a per-period miss series: window, relative and
// absolute thresholds (stats.DetectPhases).
const (
	phaseWindow = 8
	phaseRel    = 0.8
	phaseAbs    = 50
)

// seriesFormats are the -series renderings of one benchmark's paired
// per-period series.
var seriesFormats = map[string]func(w io.Writer, name string, misses, retired []float64) error{
	"csv": func(w io.Writer, _ string, misses, retired []float64) error {
		fmt.Fprintln(w, "period,llc_misses,instructions_retired")
		for i := range misses {
			fmt.Fprintf(w, "%d,%.0f,%.0f\n", i, misses[i], retired[i])
		}
		return nil
	},
	"spark": func(w io.Writer, name string, misses, retired []float64) error {
		fmt.Fprintf(w, "%s over %d periods (correlation %.3f)\n",
			name, len(misses), stats.Correlation(misses, retired))
		fmt.Fprintf(w, "  LLC misses    %s\n", report.Sparkline(misses, 100))
		fmt.Fprintf(w, "  instr retired %s\n", report.Sparkline(retired, 100))
		return nil
	},
	"hist": func(w io.Writer, name string, misses, _ []float64) error {
		h := telemetry.NewHistogram(0, stats.Percentile(misses, 100)+1, 16)
		for _, v := range misses {
			h.Observe(v)
		}
		fmt.Fprintf(w, "%s: distribution of LLC misses per period over %d periods\n", name, len(misses))
		fmt.Fprintf(w, "(median %.0f, p90 %.0f)\n", h.Quantile(0.5), h.Quantile(0.9))
		return renderHist(w, h, 50)
	},
	"phases": func(w io.Writer, name string, misses, _ []float64) error {
		phases := stats.DetectPhases(misses, phaseWindow, phaseRel, phaseAbs)
		fmt.Fprintf(w, "%s: %d phases over %d periods\n", name, len(phases), len(misses))
		for i, ph := range phases {
			fmt.Fprintf(w, "  phase %d: periods [%d,%d) length %d, mean %.0f misses/period\n",
				i, ph.Start, ph.End, ph.Len(), ph.Mean)
		}
		return nil
	},
}

// renderHist writes h as an ASCII histogram, one bucket per line labelled
// by its lower edge, bars scaled to the largest bucket. h starts at 0 and
// ends past its largest sample, so it has no tails to print.
func renderHist(w io.Writer, h *telemetry.Histogram, barWidth int) error {
	var lo []float64
	var counts []uint64
	edge, prev := 0.0, uint64(0)
	h.EachBucket(func(le float64, cum uint64) {
		lo, counts = append(lo, edge), append(counts, cum-prev)
		edge, prev = le, cum
	})
	counts = counts[:h.Buckets()] // drop the empty +Inf tail
	peak := max(1, slices.Max(counts))
	for i, c := range counts {
		bar := strings.Repeat("#", int(math.Round(float64(c)/float64(peak)*float64(barWidth))))
		if _, err := fmt.Fprintf(w, "%12.1f  %-*s %d\n", lo[i], barWidth, bar, c); err != nil {
			return err
		}
	}
	return nil
}

// printWorkloads measures each profile alone on the default machine and
// tabulates it.
func printWorkloads(w io.Writer, profiles []spec.Profile, periods int) error {
	t := report.NewTable("benchmark", "class", "mem_frac", "base_cpi", "instructions",
		"instr/period", "misses/period", "phases")
	for _, p := range profiles {
		misses, retired := runner.Sample(p.Batch(), workloadsSeed, false, workloadsWarmup, periods)
		t.AddRow(p.Name, p.Class.String(),
			fmt.Sprintf("%.2f", p.Exec.MemFraction),
			fmt.Sprintf("%.2f", p.Exec.BaseCPI),
			fmt.Sprintf("%d", p.Exec.Instructions),
			fmt.Sprintf("%.0f", stats.Mean(retired)),
			fmt.Sprintf("%.1f", stats.Mean(misses)),
			fmt.Sprintf("%d", len(stats.DetectPhases(misses, phaseWindow, phaseRel, phaseAbs))))
	}
	return t.Render(w)
}
