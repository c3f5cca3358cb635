// Command caer-trace dumps a benchmark's per-period PMU time series (the
// raw data behind the paper's Figure 3): last-level-cache misses and
// instructions retired per sampling period, running alone or next to the
// lbm adversary.
//
// Usage:
//
//	caer-trace -bench xalancbmk [-periods 500] [-colo]
//	           [-format csv|spark|hist|phases] [-chrome trace.json]
package main

import (
	"flag"
	"fmt"
	"os"

	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/report"
	"caer/internal/spec"
	"caer/internal/stats"
	"caer/internal/trace"
)

func main() {
	bench := flag.String("bench", "xalancbmk", "benchmark to trace")
	periods := flag.Int("periods", 0, "periods to trace (0 = run to completion)")
	colo := flag.Bool("colo", false, "co-locate with lbm while tracing")
	format := flag.String("format", "csv", "output format: csv, spark, hist or phases")
	chrome := flag.String("chrome", "", "also write the trace as Chrome trace-event JSON to this file")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	p, ok := spec.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "caer-trace: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}

	m := machine.New(machine.Config{Cores: 2})
	proc := p.NewProcess(0, *seed)
	m.Bind(0, proc)
	if *colo {
		m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, *seed+1))
	}
	sampler := pmu.NewSampler(pmu.New(m, 0),
		[]pmu.Event{pmu.EventLLCMisses, pmu.EventInstrRetired, pmu.EventCycles}, true)
	rec := trace.NewRecorder(m)
	for i := 0; (*periods == 0 || i < *periods) && !proc.Done(); i++ {
		m.RunPeriod()
		sampler.Probe()
		rec.Tick()
	}
	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caer-trace: %v\n", err)
			os.Exit(1)
		}
		if err := rec.Trace().WriteChrome(f); err != nil {
			fmt.Fprintf(os.Stderr, "caer-trace: write chrome trace: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "[wrote %s: chrome trace, load in chrome://tracing or Perfetto]\n", *chrome)
	}

	misses := sampler.Series(pmu.EventLLCMisses)
	retired := sampler.Series(pmu.EventInstrRetired)
	switch *format {
	case "csv":
		fmt.Println("period,llc_misses,instructions_retired")
		for i := range misses {
			fmt.Printf("%d,%.0f,%.0f\n", i, misses[i], retired[i])
		}
	case "spark":
		fmt.Printf("%s over %d periods (correlation %.3f)\n",
			p.Name, len(misses), stats.Correlation(misses, retired))
		fmt.Printf("  LLC misses    %s\n", report.Sparkline(misses, 100))
		fmt.Printf("  instr retired %s\n", report.Sparkline(retired, 100))
	case "hist":
		max := stats.Percentile(misses, 100) + 1
		h := stats.NewHistogram(0, max, 16)
		for _, v := range misses {
			h.Add(v)
		}
		fmt.Printf("%s: distribution of LLC misses per period over %d periods\n", p.Name, len(misses))
		fmt.Printf("(median %.0f, p90 %.0f)\n", h.Quantile(0.5), h.Quantile(0.9))
		if err := h.Render(os.Stdout, 50); err != nil {
			fmt.Fprintf(os.Stderr, "caer-trace: %v\n", err)
			os.Exit(1)
		}
	case "phases":
		phases := trace.DetectPhases(misses, 8, 0.8, 50)
		fmt.Printf("%s: %d phases over %d periods\n", p.Name, len(phases), len(misses))
		for i, ph := range phases {
			fmt.Printf("  phase %d: periods [%d,%d) length %d, mean %.0f misses/period\n",
				i, ph.Start, ph.End, ph.Len(), ph.Mean)
		}
	default:
		fmt.Fprintf(os.Stderr, "caer-trace: unknown format %q\n", *format)
		os.Exit(1)
	}
}
