// Command caer-doctor is the offline SLO diagnosis tool: it joins a
// time-series dump, the armed SLO objectives, the fleet/scheduler decision
// logs, and the Chrome span trace — the bundle `caer-bench -slo` writes —
// and prints, per SLO violation, the causal chain that explains it: the
// burn window, the firing alert's trajectory, the fail-open degraded spans
// and probe silence inside the window, and the placement decisions that
// loaded the machine in the periods leading in.
//
// Usage:
//
//	caer-doctor [-dir DIR] [-series FILE] [-objectives FILE]
//	            [-events FILE] [-trace FILE] [-lead N]
//
// -dir points at a bundle directory holding SLO_series.json,
// SLO_objectives.json, SLO_events.json, and SLO_trace.json (the individual
// flags override single files; events and trace are optional — without
// them the doctor still replays the alerts, just with less provenance).
// -lead widens the decision join window before each episode (default 64
// periods, one slow window).
//
// The replay drives the same burn-rate state machine the live engines run
// (slo.Replay), so the diagnosis is byte-faithful to what fired online:
// every firing episode printed here is one the live engine raised, and
// vice versa.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"caer/internal/fleet"
	"caer/internal/slo"
	"caer/internal/telemetry"
)

// periodMicros mirrors the trace export: one period = 1 ms = 1000 us.
const periodMicros = 1000

func main() {
	dir := flag.String("dir", ".", "bundle directory (SLO_series.json, SLO_objectives.json, SLO_events.json, SLO_trace.json)")
	seriesPath := flag.String("series", "", "time-series dump (default DIR/SLO_series.json)")
	objectivesPath := flag.String("objectives", "", "armed objectives JSON (default DIR/SLO_objectives.json)")
	eventsPath := flag.String("events", "", "decision-log dump (default DIR/SLO_events.json; optional)")
	tracePath := flag.String("trace", "", "Chrome span trace (default DIR/SLO_trace.json; optional)")
	lead := flag.Int("lead", 64, "periods before each episode to include in the decision join")
	flag.Parse()

	pick := func(override, name string) string {
		if override != "" {
			return override
		}
		return filepath.Join(*dir, name)
	}

	series := loadSeries(pick(*seriesPath, "SLO_series.json"))
	objectives := loadObjectives(pick(*objectivesPath, "SLO_objectives.json"))
	events := loadEvents(pick(*eventsPath, "SLO_events.json"))
	spans, lanes := loadTrace(pick(*tracePath, "SLO_trace.json"))
	reports, err := slo.Replay(series, objectives)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("caer-doctor: %d samples (periods [%d, %d)), %d tracks, %d objectives\n",
		series.Retained(), series.FirstRetained(), series.Samples(),
		len(series.Tracks()), len(objectives))
	if events != nil {
		fmt.Printf("events: policy %s over %d ticks, %d fleet decisions, %d machines\n",
			events.Policy, events.Ticks, len(events.Fleet), len(events.Machines))
	}
	if spans != nil {
		fmt.Printf("trace: %d spans on %d lanes\n", len(spans), len(lanes))
	}

	violations := 0
	for _, r := range reports {
		for _, ep := range r.Episodes {
			violations++
			diagnose(violations, r, ep, series, events, spans, lanes, *lead)
		}
	}
	for _, r := range reports {
		if len(r.Episodes) == 0 {
			fmt.Printf("\nobjective %s: healthy — never fired over %d evaluated periods (final state %s)\n",
				r.Objective.Name, series.Retained(), r.Final)
		}
	}
	if violations == 0 {
		fmt.Println("\ndiagnosis: no SLO violations in this bundle")
		return
	}
	fmt.Printf("\ndiagnosis: %d SLO violation(s); see causal chains above\n", violations)
}

// diagnose prints one firing episode's causal chain.
func diagnose(n int, r slo.AlertReport, ep slo.Episode,
	series *telemetry.Series, events *fleet.EventsDump,
	spans []telemetry.ChromeEvent, lanes map[int]string, lead int) {

	obj := r.Objective
	open := ""
	if ep.Open {
		open = ", still open at end of series"
	}
	fmt.Printf("\nVIOLATION %d: %s firing over periods [%d, %d] (%d periods, peak slow burn %.2fx%s)\n",
		n, obj.Name, ep.Start, ep.End, ep.End-ep.Start+1, ep.PeakBurn, open)
	switch obj.Kind {
	case slo.KindQuantile:
		fmt.Printf("  objective: p%g(%s%s) < %g periods, windows %d/%d, burn threshold %gx\n",
			obj.Quantile*100, obj.Metric, labelSuffix(obj.LabelKV), obj.Bound,
			obj.FastWindow, obj.Window, obj.Burn)
	case slo.KindBudget:
		fmt.Printf("  objective: rate(%s%s) < %g/period, windows %d/%d, burn threshold %gx\n",
			obj.Metric, labelSuffix(obj.LabelKV), obj.Budget,
			obj.FastWindow, obj.Window, obj.Burn)
	}
	if tr, ok := series.Lookup(obj.Metric, obj.LabelKV...); ok {
		end := int(ep.End) + 1
		window := int(ep.End-ep.Start) + 1
		switch obj.Kind {
		case slo.KindBudget:
			fmt.Printf("  burn window: mean rate %.3f/period over the episode (budget %g)\n",
				series.RateAt(tr, end, window), obj.Budget)
		case slo.KindQuantile:
			fmt.Printf("  burn window: %.1f%% of observations over the %g-period bound (budget %.1f%%)\n",
				100*series.OverShareAt(tr, end, window, obj.Bound), obj.Bound, 100*(1-obj.Quantile))
		}
	}

	joinTrace(ep, spans, lanes, lead)
	joinDecisions(ep, events, lead)
}

// joinTrace summarizes the span trace inside the episode window: degraded
// (fail-open) spans and alert spans are the smoking guns, probe counts on
// the latency lanes expose monitor silence.
func joinTrace(ep slo.Episode, spans []telemetry.ChromeEvent, lanes map[int]string, lead int) {
	if spans == nil {
		return
	}
	lo := float64(int64(ep.Start)-int64(lead)) * periodMicros
	hi := float64(ep.End+1) * periodMicros
	kindCounts := map[string]int{}
	probesByLane := map[string]int{}
	var guns []string
	for _, e := range spans {
		if e.Phase != "X" || e.Ts+e.Dur < lo || e.Ts > hi {
			continue
		}
		kindCounts[e.Name]++
		lane := lanes[e.Tid]
		switch e.Name {
		case "probe":
			probesByLane[lane] += int(e.Dur / periodMicros)
		case "degraded", "alert":
			guns = append(guns, fmt.Sprintf("%s span on %s over [%d, %d] (value %g)",
				e.Name, lane, int(e.Ts/periodMicros), int((e.Ts+e.Dur)/periodMicros)-1,
				e.ArgNumber("value")))
		}
	}
	if len(kindCounts) == 0 {
		fmt.Printf("  trace: no spans retained in the window\n")
		return
	}
	fmt.Printf("  trace (window + %d lead): %s\n", lead, countLine(kindCounts))
	for _, g := range guns {
		fmt.Printf("    %s\n", g)
	}
	windowLen := int(ep.End-ep.Start) + 1 + lead
	var silent []string
	for lane, covered := range probesByLane {
		if strings.Contains(lane, "latency/") && covered < windowLen/2 {
			silent = append(silent, fmt.Sprintf("%s (%d/%d periods probed)", lane, covered, windowLen))
		}
	}
	sort.Strings(silent)
	for _, s := range silent {
		fmt.Printf("    monitor mostly silent on %s — probable monitor outage / comm staleness\n", s)
	}
}

// joinDecisions summarizes fleet and per-machine scheduler decisions in
// the episode window plus the lead-in: the placement provenance of the
// load the machine carried while it burned.
func joinDecisions(ep slo.Episode, events *fleet.EventsDump, lead int) {
	if events == nil {
		return
	}
	lo := int64(ep.Start) - int64(lead)
	hi := int64(ep.End)
	var fleetLines []string
	for _, d := range events.Fleet {
		if int64(d.Tick) < lo || int64(d.Tick) > hi {
			continue
		}
		freshness := "stale/synchronous view"
		if d.Fresh {
			freshness = "fresh telemetry view"
		}
		fleetLines = append(fleetLines, fmt.Sprintf("tick %d: %s %s(job %d) -> m%d (%s)",
			d.Tick, d.Kind, d.Name, d.Job, d.To, freshness))
	}
	fmt.Printf("  fleet decisions in window: %d\n", len(fleetLines))
	for i, l := range fleetLines {
		if i == 8 {
			fmt.Printf("    ... %d more\n", len(fleetLines)-8)
			break
		}
		fmt.Printf("    %s\n", l)
	}
	for k, log := range events.Machines {
		counts := map[string]int{}
		for _, d := range log {
			if int64(d.Period) < lo || int64(d.Period) > hi {
				continue
			}
			counts[d.Kind.String()]++
		}
		if len(counts) > 0 {
			fmt.Printf("  m%d scheduler decisions in window: %s\n", k, countLine(counts))
		}
	}
}

// labelSuffix renders an objective's label selector.
func labelSuffix(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	var parts []string
	for i := 0; i+1 < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// countLine renders a kind-count map deterministically.
func countLine(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
	}
	return strings.Join(parts, ", ")
}

func loadSeries(path string) *telemetry.Series {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open series: %v", err)
	}
	defer f.Close()
	s, err := telemetry.ParseSeries(f)
	if err != nil {
		fatalf("parse series %s: %v", path, err)
	}
	return s
}

func loadObjectives(path string) []slo.Objective {
	f, err := os.Open(path)
	if err != nil {
		fatalf("open objectives: %v", err)
	}
	defer f.Close()
	var objs []slo.Objective
	if err := json.NewDecoder(f).Decode(&objs); err != nil {
		fatalf("parse objectives %s: %v", path, err)
	}
	if len(objs) == 0 {
		fatalf("objectives %s is empty", path)
	}
	return objs
}

// loadEvents returns nil when the file is absent (events are optional).
func loadEvents(path string) *fleet.EventsDump {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	d, err := fleet.ParseEvents(f)
	if err != nil {
		fatalf("parse events %s: %v", path, err)
	}
	return d
}

// loadTrace returns (nil, nil) when the file is absent (trace optional);
// lanes maps track ids (Chrome tids) to their thread names.
func loadTrace(path string) ([]telemetry.ChromeEvent, map[int]string) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	events, err := telemetry.ParseChromeTrace(f)
	if err != nil {
		fatalf("parse trace %s: %v", path, err)
	}
	lanes := make(map[int]string)
	for _, e := range events {
		if e.Phase == "M" && e.Name == "thread_name" {
			if name, ok := e.Args["name"].(string); ok {
				lanes[e.Tid] = name
			}
		}
	}
	return events, lanes
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caer-doctor: "+format+"\n", args...)
	os.Exit(1)
}
