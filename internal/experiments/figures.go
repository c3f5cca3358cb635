package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/report"
	"caer/internal/runner"
	"caer/internal/spec"
	"caer/internal/stats"
)

// Figure1 reproduces the paper's Figure 1: per-benchmark slowdown when
// co-located with the adversary versus running alone.
type Figure1 struct {
	Benchmarks []string
	Slowdowns  []float64
	Mean       float64
}

// Figure1 runs (or recalls) the alone and native-co-location scenarios.
func (s *Suite) Figure1() Figure1 {
	s.Prewarm(runAlone, runColo)
	var f Figure1
	for _, b := range s.Benchmarks {
		alone := s.Result(b, runner.ModeAlone, 0)
		colo := s.Result(b, runner.ModeNativeColo, 0)
		f.Benchmarks = append(f.Benchmarks, b.Name)
		f.Slowdowns = append(f.Slowdowns, runner.Slowdown(colo, alone))
	}
	f.Mean = stats.Mean(f.Slowdowns)
	return f
}

// Render writes the figure as a bar chart plus mean row.
func (f Figure1) Render(w io.Writer) error {
	labels := append(append([]string{}, f.Benchmarks...), "mean")
	values := append(append([]float64{}, f.Slowdowns...), f.Mean)
	return report.BarChart{
		Title:  "Figure 1: slowdown due to co-location with the contender (1.0 = no interference)",
		Min:    1.0,
		Format: "%.3fx",
	}.Render(w, labels, report.Series{Name: "colo", Values: values})
}

// Table returns the figure's data as a table (also used for CSV export).
func (f Figure1) Table() *report.Table {
	t := report.NewTable("benchmark", "slowdown")
	for i, b := range f.Benchmarks {
		t.AddRow(b, fmt.Sprintf("%.4f", f.Slowdowns[i]))
	}
	t.AddRow("mean", fmt.Sprintf("%.4f", f.Mean))
	return t
}

// Figure2 reproduces the paper's Figure 2: total last-level-cache misses
// running alone versus with the contender.
type Figure2 struct {
	Benchmarks  []string
	MissesAlone []float64
	MissesColo  []float64
}

// Figure2 compares the LLC miss totals of the Figure 1 runs.
func (s *Suite) Figure2() Figure2 {
	s.Prewarm(runAlone, runColo)
	var f Figure2
	for _, b := range s.Benchmarks {
		alone := s.Result(b, runner.ModeAlone, 0)
		colo := s.Result(b, runner.ModeNativeColo, 0)
		f.Benchmarks = append(f.Benchmarks, b.Name)
		f.MissesAlone = append(f.MissesAlone, float64(alone.LatencyMisses))
		f.MissesColo = append(f.MissesColo, float64(colo.LatencyMisses))
	}
	return f
}

// Render writes the figure as a grouped bar chart.
func (f Figure2) Render(w io.Writer) error {
	return report.BarChart{
		Title:  "Figure 2: last-level cache misses, alone vs with contender",
		Format: "%.0f",
	}.Render(w, f.Benchmarks,
		report.Series{Name: "alone", Values: f.MissesAlone},
		report.Series{Name: "w/ contender", Values: f.MissesColo},
	)
}

// Table returns the figure's data as a table.
func (f Figure2) Table() *report.Table {
	t := report.NewTable("benchmark", "misses_alone", "misses_contender", "increase")
	for i, b := range f.Benchmarks {
		ratio := 0.0
		if f.MissesAlone[i] > 0 {
			ratio = f.MissesColo[i] / f.MissesAlone[i]
		}
		t.AddRow(b,
			fmt.Sprintf("%.0f", f.MissesAlone[i]),
			fmt.Sprintf("%.0f", f.MissesColo[i]),
			fmt.Sprintf("%.2fx", ratio))
	}
	return t
}

// Figure3 reproduces the paper's Figure 3: per-period LLC-miss and
// instruction-retirement time series for benchmarks with clear miss
// phases, demonstrating their inverse relationship.
type Figure3 struct {
	Series []Figure3Series
}

// Figure3Series is one benchmark's paired time series.
type Figure3Series struct {
	Benchmark string
	Misses    []float64
	Retired   []float64
	// Correlation is the Pearson correlation between the two series; the
	// paper's claim is that it is strongly negative.
	Correlation float64
}

// Figure3 samples the named benchmarks (default: the paper's xalancbmk and
// mcf) running alone, at most maxPeriods periods (0 = to completion).
func (s *Suite) Figure3(maxPeriods int, names ...string) Figure3 {
	s.mu.Lock()
	s.defaults()
	seed := s.Seed
	s.mu.Unlock()
	if len(names) == 0 {
		names = []string{"483.xalancbmk", "429.mcf"}
	}
	var f Figure3
	for _, n := range names {
		p, ok := spec.ByName(n)
		if !ok {
			panic(fmt.Sprintf("experiments: unknown benchmark %q", n))
		}
		misses, retired := runner.Sample(p, seed, false, 0, maxPeriods)
		f.Series = append(f.Series, Figure3Series{
			Benchmark:   p.Name,
			Misses:      misses,
			Retired:     retired,
			Correlation: stats.Correlation(misses, retired),
		})
	}
	return f
}

// Render writes each benchmark's paired sparklines and correlation.
func (f Figure3) Render(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "Figure 3: per-period LLC misses vs instruction retirement (alone)"); err != nil {
		return err
	}
	for _, srs := range f.Series {
		if _, err := fmt.Fprintf(w, "%s (%d periods, correlation %.3f)\n  LLC misses   %s\n  instr retired %s\n",
			srs.Benchmark, len(srs.Misses), srs.Correlation,
			report.Sparkline(srs.Misses, 80), report.Sparkline(srs.Retired, 80)); err != nil {
			return err
		}
	}
	return nil
}

// Figure6 reproduces the paper's Figure 6: execution-time penalty under
// native co-location versus CAER with each heuristic.
type Figure6 struct {
	Benchmarks                      []string
	Colo                            []float64 // native co-location slowdown
	Shutter                         []float64 // CAER burst-shutter slowdown
	Rule                            []float64 // CAER rule-based slowdown
	MeanColo, MeanShutter, MeanRule float64
}

// Figure6 runs the full three-way comparison.
func (s *Suite) Figure6() Figure6 {
	s.Prewarm(runAlone, runColo, runShutter, runRule)
	var f Figure6
	for _, b := range s.Benchmarks {
		alone := s.Result(b, runner.ModeAlone, 0)
		f.Benchmarks = append(f.Benchmarks, b.Name)
		f.Colo = append(f.Colo, runner.Slowdown(s.Result(b, runner.ModeNativeColo, 0), alone))
		f.Shutter = append(f.Shutter, runner.Slowdown(s.Result(b, runner.ModeCAER, caer.HeuristicShutter), alone))
		f.Rule = append(f.Rule, runner.Slowdown(s.Result(b, runner.ModeCAER, caer.HeuristicRule), alone))
	}
	f.MeanColo = stats.Mean(f.Colo)
	f.MeanShutter = stats.Mean(f.Shutter)
	f.MeanRule = stats.Mean(f.Rule)
	return f
}

// Render writes the grouped bar chart with a mean group.
func (f Figure6) Render(w io.Writer) error {
	labels := append(append([]string{}, f.Benchmarks...), "mean")
	return report.BarChart{
		Title:  "Figure 6: execution-time penalty due to cross-core interference",
		Min:    1.0,
		Format: "%.3fx",
	}.Render(w, labels,
		report.Series{Name: "colo", Values: append(append([]float64{}, f.Colo...), f.MeanColo)},
		report.Series{Name: "caer-shutter", Values: append(append([]float64{}, f.Shutter...), f.MeanShutter)},
		report.Series{Name: "caer-rule", Values: append(append([]float64{}, f.Rule...), f.MeanRule)},
	)
}

// Table returns the figure's data as a table.
func (f Figure6) Table() *report.Table {
	t := report.NewTable("benchmark", "colo", "caer_shutter", "caer_rule")
	for i, b := range f.Benchmarks {
		t.AddRow(b,
			fmt.Sprintf("%.4f", f.Colo[i]),
			fmt.Sprintf("%.4f", f.Shutter[i]),
			fmt.Sprintf("%.4f", f.Rule[i]))
	}
	t.AddRow("mean",
		fmt.Sprintf("%.4f", f.MeanColo),
		fmt.Sprintf("%.4f", f.MeanShutter),
		fmt.Sprintf("%.4f", f.MeanRule))
	return t
}

// Figure7 reproduces the paper's Figure 7: utilization gained by allowing
// co-location under CAER (higher is better).
type Figure7 struct {
	Benchmarks            []string
	Shutter               []float64
	Rule                  []float64
	MeanShutter, MeanRule float64
}

// Figure7 extracts the batch duty cycles of the CAER runs.
func (s *Suite) Figure7() Figure7 {
	s.Prewarm(runShutter, runRule)
	var f Figure7
	for _, b := range s.Benchmarks {
		f.Benchmarks = append(f.Benchmarks, b.Name)
		f.Shutter = append(f.Shutter, runner.UtilizationGained(s.Result(b, runner.ModeCAER, caer.HeuristicShutter)))
		f.Rule = append(f.Rule, runner.UtilizationGained(s.Result(b, runner.ModeCAER, caer.HeuristicRule)))
	}
	f.MeanShutter = stats.Mean(f.Shutter)
	f.MeanRule = stats.Mean(f.Rule)
	return f
}

// Render writes the grouped bar chart with a mean group.
func (f Figure7) Render(w io.Writer) error {
	labels := append(append([]string{}, f.Benchmarks...), "mean")
	return report.BarChart{
		Title:  "Figure 7: utilization gained (higher is better)",
		Max:    1.0,
		Format: "%.1f%%",
	}.Render(w, labels,
		report.Series{Name: "caer-shutter", Values: percentValues(append(append([]float64{}, f.Shutter...), f.MeanShutter))},
		report.Series{Name: "caer-rule", Values: percentValues(append(append([]float64{}, f.Rule...), f.MeanRule))},
	)
}

// Table returns the figure's data as a table.
func (f Figure7) Table() *report.Table {
	t := report.NewTable("benchmark", "shutter_util_gained", "rule_util_gained")
	for i, b := range f.Benchmarks {
		t.AddRow(b, report.Percent(f.Shutter[i]), report.Percent(f.Rule[i]))
	}
	t.AddRow("mean", report.Percent(f.MeanShutter), report.Percent(f.MeanRule))
	return t
}

func percentValues(fracs []float64) []float64 {
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		out[i] = f * 100
	}
	return out
}

// Figure8 reproduces the paper's Figure 8: percentage of the cross-core
// interference penalty eliminated by CAER (higher is better).
type Figure8 struct {
	Benchmarks            []string
	Shutter               []float64
	Rule                  []float64
	MeanShutter, MeanRule float64
}

// Figure8 derives interference eliminated from the Figure 6 runs. A
// benchmark with no measurable native penalty is skipped (the metric is
// undefined), matching how such bars are absent from the paper's plot.
func (s *Suite) Figure8() Figure8 {
	s.Prewarm(runAlone, runColo, runShutter, runRule)
	var f Figure8
	for _, b := range s.Benchmarks {
		alone := s.Result(b, runner.ModeAlone, 0)
		colo := s.Result(b, runner.ModeNativeColo, 0)
		if colo.Periods <= alone.Periods {
			continue
		}
		f.Benchmarks = append(f.Benchmarks, b.Name)
		f.Shutter = append(f.Shutter, runner.InterferenceEliminated(s.Result(b, runner.ModeCAER, caer.HeuristicShutter), colo, alone))
		f.Rule = append(f.Rule, runner.InterferenceEliminated(s.Result(b, runner.ModeCAER, caer.HeuristicRule), colo, alone))
	}
	f.MeanShutter = stats.Mean(f.Shutter)
	f.MeanRule = stats.Mean(f.Rule)
	return f
}

// Render writes the grouped bar chart with a mean group.
func (f Figure8) Render(w io.Writer) error {
	labels := append(append([]string{}, f.Benchmarks...), "mean")
	return report.BarChart{
		Title:  "Figure 8: cross-core interference eliminated (higher is better)",
		Max:    100,
		Format: "%.1f%%",
	}.Render(w, labels,
		report.Series{Name: "caer-shutter", Values: percentValues(append(append([]float64{}, f.Shutter...), f.MeanShutter))},
		report.Series{Name: "caer-rule", Values: percentValues(append(append([]float64{}, f.Rule...), f.MeanRule))},
	)
}

// Table returns the figure's data as a table.
func (f Figure8) Table() *report.Table {
	t := report.NewTable("benchmark", "shutter_eliminated", "rule_eliminated")
	for i, b := range f.Benchmarks {
		t.AddRow(b, report.Percent(f.Shutter[i]), report.Percent(f.Rule[i]))
	}
	t.AddRow("mean", report.Percent(f.MeanShutter), report.Percent(f.MeanRule))
	return t
}

// FigureAccuracy reproduces the paper's Figures 9 and 10: utilization
// gained relative to the random baseline (Equation 2's A) for the most or
// least interference-sensitive benchmarks. For sensitive benchmarks a
// correct heuristic shows A < 0 (it sacrifices more utilization than
// random); for insensitive ones A > 0.
type FigureAccuracy struct {
	// MostSensitive is true for Figure 9, false for Figure 10.
	MostSensitive         bool
	Benchmarks            []string
	Shutter               []float64
	Rule                  []float64
	MeanShutter, MeanRule float64
}

// FigureAccuracy computes the accuracy figure over the n most (Figure 9)
// or least (Figure 10) sensitive benchmarks — n is 6 in the paper.
func (s *Suite) FigureAccuracy(mostSensitive bool, n int) FigureAccuracy {
	ranked := s.rankBySensitivity()
	if n > len(ranked) {
		n = len(ranked)
	}
	var chosen []spec.Profile
	if mostSensitive {
		chosen = ranked[:n]
	} else {
		chosen = ranked[len(ranked)-n:]
	}
	s.Prewarm(runShutter, runRule, runRandom)
	f := FigureAccuracy{MostSensitive: mostSensitive}
	for _, b := range chosen {
		random := s.Result(b, runner.ModeCAER, caer.HeuristicRandom)
		f.Benchmarks = append(f.Benchmarks, b.Name)
		f.Shutter = append(f.Shutter, runner.Accuracy(s.Result(b, runner.ModeCAER, caer.HeuristicShutter), random))
		f.Rule = append(f.Rule, runner.Accuracy(s.Result(b, runner.ModeCAER, caer.HeuristicRule), random))
	}
	f.MeanShutter = stats.Mean(f.Shutter)
	f.MeanRule = stats.Mean(f.Rule)
	return f
}

// Render writes the grouped bar chart with a mean group.
func (f FigureAccuracy) Render(w io.Writer) error {
	title := "Figure 9: utilization gained relative to random, 6 most sensitive (negative = correctly sacrificing)"
	if !f.MostSensitive {
		title = "Figure 10: utilization gained relative to random, 6 least sensitive (positive = correctly gaining)"
	}
	labels := append(append([]string{}, f.Benchmarks...), "mean")
	return report.BarChart{
		Title:  title,
		Min:    -100,
		Max:    100,
		Format: "%+.1f%%",
	}.Render(w, labels,
		report.Series{Name: "caer-shutter", Values: percentValues(append(append([]float64{}, f.Shutter...), f.MeanShutter))},
		report.Series{Name: "caer-rule", Values: percentValues(append(append([]float64{}, f.Rule...), f.MeanRule))},
	)
}

// Table returns the figure's data as a table.
func (f FigureAccuracy) Table() *report.Table {
	t := report.NewTable("benchmark", "shutter_A", "rule_A")
	for i, b := range f.Benchmarks {
		t.AddRow(b, fmt.Sprintf("%+.3f", f.Shutter[i]), fmt.Sprintf("%+.3f", f.Rule[i]))
	}
	t.AddRow("mean", fmt.Sprintf("%+.3f", f.MeanShutter), fmt.Sprintf("%+.3f", f.MeanRule))
	return t
}
