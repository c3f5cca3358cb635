// Command caer-top renders a refreshing per-core view of a live CAER
// deployment from the telemetry endpoint another caer command serves with
// -telemetry: per-core contention pressure, the current directive, and
// degraded (fail-open) state, plus the headline pipeline counters.
//
// Fleet snapshots (caer-fleet/caer-bench -fleet serve a Registry.Union
// where every machine's series carries a machine="<k>" label) render in
// fleet mode automatically: cores group under their machine, -machine
// narrows the view to one machine, and an alerts pane summarizes every
// node's caer_slo_* burn-rate state (objective, state, fast/slow burn,
// episodes fired).
//
// Usage:
//
//	caer-run -latency mcf -mode caer -telemetry :6060 &
//	caer-top -addr localhost:6060
//	caer-top -addr localhost:6060 -once
//	caer-top -addr localhost:6060 -interval 500ms -iterations 10
//	caer-top -addr localhost:6060 -machine 2
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"caer/internal/slo"
	"caer/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "localhost:6060", "telemetry endpoint to scrape (host:port)")
	interval := flag.Duration("interval", time.Second, "refresh interval")
	iterations := flag.Int("iterations", 0, "number of refreshes before exiting (0 = until interrupted)")
	once := flag.Bool("once", false, "print a single snapshot without clearing the screen")
	machine := flag.String("machine", "", "fleet mode: show only this machine= label value")
	flag.Parse()

	if err := checkFlags(*interval, *iterations); err != nil {
		fmt.Fprintf(os.Stderr, "caer-top: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *once {
		*iterations = 1
	}
	client := &http.Client{Timeout: scrapeTimeout}
	for i := 0; *iterations == 0 || i < *iterations; i++ {
		metrics, err := scrape(client, "http://"+*addr+"/metrics")
		if err != nil {
			fatalf("%v", err)
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		if err := render(os.Stdout, *addr, filterMachine(metrics, *machine)); err != nil {
			fatalf("render: %v", err)
		}
		if *iterations != 0 && i == *iterations-1 {
			break
		}
		time.Sleep(*interval)
	}
}

// checkFlags rejects a refresh loop that would spin against the endpoint
// (-interval <= 0) or draw nothing (-iterations < 0).
func checkFlags(interval time.Duration, iterations int) error {
	if interval <= 0 {
		return fmt.Errorf("-interval must be positive, got %v", interval)
	}
	if iterations < 0 {
		return fmt.Errorf("-iterations must be >= 0, got %d", iterations)
	}
	return nil
}

// scrapeTimeout bounds one scrape, so an endpoint that accepts the
// connection and never answers fails the scrape instead of freezing the
// view.
const scrapeTimeout = 10 * time.Second

// scrape fetches and parses one Prometheus-text snapshot through client.
func scrape(client *http.Client, url string) ([]telemetry.TextMetric, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	metrics, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	return metrics, nil
}

// filterMachine narrows a fleet snapshot to one machine= label value (""
// keeps everything). Unlabelled series — the process-global spine — stay:
// they are shared context, not another machine's.
func filterMachine(metrics []telemetry.TextMetric, machine string) []telemetry.TextMetric {
	if machine == "" {
		return metrics
	}
	out := metrics[:0]
	for _, m := range metrics {
		if v := m.Labels["machine"]; v == "" || v == machine {
			out = append(out, m)
		}
	}
	return out
}

// coreRow is one core's live state assembled from the caer_core_* gauges.
type coreRow struct {
	machine   string
	core      string
	app       string
	role      string
	pressure  float64
	directive float64
	hasDir    bool
	degraded  bool
}

// render writes one snapshot of the per-core view. Split from main so tests
// can drive it with a synthetic metric set.
func render(w io.Writer, addr string, metrics []telemetry.TextMetric) error {
	value := func(name string) float64 {
		var total float64
		for _, m := range metrics {
			if m.Name == name {
				total += m.Value
			}
		}
		return total
	}
	labeled := func(name, key, val string) float64 {
		for _, m := range metrics {
			if m.Name == name && m.Labels[key] == val {
				return m.Value
			}
		}
		return 0
	}

	fmt.Fprintf(w, "caer-top - %s\n\n", addr)
	fmt.Fprintf(w, "pipeline: %.0f ticks, %.0f contention / %.0f clear verdicts, %.0f holds, %.0f watchdog trips\n",
		value("caer_engine_ticks_total"),
		labeled("caer_engine_verdicts_total", "verdict", "contention"),
		labeled("caer_engine_verdicts_total", "verdict", "clear"),
		value("caer_engine_holds_total"),
		value("caer_engine_watchdog_trips_total"))
	fmt.Fprintf(w, "sampling: %.0f pmu reads, %.0f publishes, %.0f telemetry ops (period %.0f)\n\n",
		value("caer_pmu_reads_total"),
		value("caer_comm_publishes_total"),
		value("caer_telemetry_ops_total"),
		value("caer_comm_period"))

	rows := collectCores(metrics)
	if len(rows) == 0 {
		fmt.Fprintln(w, "no per-core gauges yet (is a deployment stepping?)")
		return renderAlerts(w, metrics)
	}
	fleet := false
	for _, r := range rows {
		if r.machine != "" {
			fleet = true
		}
	}
	maxPressure := 1.0
	for _, r := range rows {
		if r.pressure > maxPressure {
			maxPressure = r.pressure
		}
	}
	if fleet {
		fmt.Fprintf(w, "%-8s ", "machine")
	}
	fmt.Fprintf(w, "%-5s %-12s %-18s %12s  %-20s %-9s %s\n",
		"core", "app", "role", "pressure", "", "directive", "state")
	lastMachine := "\x00"
	for _, r := range rows {
		dir, state := "-", "ok"
		if r.hasDir {
			if r.directive > 0 {
				dir = "pause"
			} else {
				dir = "run"
			}
		}
		if r.degraded {
			state = "DEGRADED"
		}
		if fleet {
			cell := ""
			if r.machine != lastMachine {
				cell = "m" + r.machine
				if r.machine == "" {
					cell = "-"
				}
				lastMachine = r.machine
			}
			fmt.Fprintf(w, "%-8s ", cell)
		}
		fmt.Fprintf(w, "%-5s %-12s %-18s %12.0f  %-20s %-9s %s\n",
			r.core, r.app, r.role, r.pressure, bar(r.pressure/maxPressure, 20), dir, state)
	}
	return renderAlerts(w, metrics)
}

// alertRow is one SLO alert's live state joined from the caer_slo_*
// families by (machine, slo) labels.
type alertRow struct {
	machine  string
	slo      string
	state    float64
	hasState bool
	fast     float64
	slow     float64
	fired    float64
}

// renderAlerts writes the fleet-mode alerts pane: one row per (machine,
// objective) with the burn-rate state machine's position. Silent when the
// snapshot carries no caer_slo_* series (non-SLO deployments).
func renderAlerts(w io.Writer, metrics []telemetry.TextMetric) error {
	byKey := map[string]*alertRow{}
	for _, m := range metrics {
		if !strings.HasPrefix(m.Name, "caer_slo_") {
			continue
		}
		name := m.Labels["slo"]
		if name == "" {
			continue // caer_slo_evals_total has no slo label
		}
		key := m.Labels["machine"] + "/" + name
		r, ok := byKey[key]
		if !ok {
			r = &alertRow{machine: m.Labels["machine"], slo: name}
			byKey[key] = r
		}
		switch m.Name {
		case "caer_slo_state":
			r.state = m.Value
			r.hasState = true
		case "caer_slo_burn_fast":
			r.fast = m.Value
		case "caer_slo_burn_slow":
			r.slow = m.Value
		case "caer_slo_alerts_total":
			r.fired = m.Value
		}
	}
	if len(byKey) == 0 {
		return nil
	}
	rows := make([]alertRow, 0, len(byKey))
	for _, r := range byKey {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].machine != rows[j].machine {
			if len(rows[i].machine) != len(rows[j].machine) {
				return len(rows[i].machine) < len(rows[j].machine)
			}
			return rows[i].machine < rows[j].machine
		}
		return rows[i].slo < rows[j].slo
	})
	fmt.Fprintf(w, "\nalerts:\n%-8s %-24s %-9s %10s %10s %7s\n",
		"machine", "slo", "state", "burn_fast", "burn_slow", "fired")
	for _, r := range rows {
		machine := "m" + r.machine
		if r.machine == "" {
			machine = "-"
		}
		state := "?"
		if r.hasState {
			state = slo.AlertState(int(r.state)).String()
		}
		fmt.Fprintf(w, "%-8s %-24s %-9s %10.2f %10.2f %7.0f\n",
			machine, r.slo, state, r.fast, r.slow, r.fired)
	}
	return nil
}

// collectCores joins the three caer_core_* families by core label.
func collectCores(metrics []telemetry.TextMetric) []coreRow {
	byCore := map[string]*coreRow{}
	for _, m := range metrics {
		if !strings.HasPrefix(m.Name, "caer_core_") {
			continue
		}
		machine := m.Labels["machine"]
		core := m.Labels["core"]
		key := machine + "/" + core
		r, ok := byCore[key]
		if !ok {
			r = &coreRow{machine: machine, core: core, app: m.Labels["app"], role: m.Labels["role"]}
			byCore[key] = r
		}
		switch m.Name {
		case "caer_core_pressure":
			r.pressure = m.Value
		case "caer_core_directive":
			r.directive = m.Value
			r.hasDir = true
		case "caer_core_degraded":
			r.degraded = m.Value > 0
		}
	}
	rows := make([]coreRow, 0, len(byCore))
	for _, r := range byCore {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].machine != rows[j].machine {
			if len(rows[i].machine) != len(rows[j].machine) {
				return len(rows[i].machine) < len(rows[j].machine)
			}
			return rows[i].machine < rows[j].machine
		}
		if len(rows[i].core) != len(rows[j].core) {
			return len(rows[i].core) < len(rows[j].core)
		}
		return rows[i].core < rows[j].core
	})
	return rows
}

// bar renders frac of a width-cell block bar.
func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac * float64(width))
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "caer-top: "+format+"\n", args...)
	os.Exit(1)
}
