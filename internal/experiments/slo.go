package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"caer/internal/fleet"
	"caer/internal/report"
	"caer/internal/slo"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// SLOPolicyResult is one placement policy's outcome in the SLO regime
// suite: the FleetSuite comparison re-run with every node's SLO engine
// armed, adding the alert trajectory to the usual QoS columns.
type SLOPolicyResult struct {
	Name string

	Ticks      int
	Arrivals   int
	Completed  int
	Throughput float64

	// Sensitive-service QoS (periods), fleet-wide.
	Requests int
	P50, P99 float64

	// MachineDispatches is the placement signature; the outage row must
	// reproduce least-pressure's exactly (the staleness-fallback pin).
	MachineDispatches []int

	// AlertsFired sums caer_slo_alerts_total across machines — completed
	// firing episodes of the per-node latency objectives.
	AlertsFired int
	// FreshDecisions counts placement decisions taken on a fresh scraped
	// view (0 under least-pressure, which never scrapes; 0 under the
	// forced outage, which never lands a scrape).
	FreshDecisions int
}

// SLOWindow is one seeded violation: a scripted monitor outage over
// [Start, End) ticks of the alert battery. With the CAER-M monitor down,
// every resident engine's watchdog fails open after Caer.WatchdogPeriods,
// so the node's degraded-ticks counter burns through its budget objective
// for the rest of the window — the ground truth the alert engine must
// flag exactly once.
type SLOWindow struct {
	Start, End int
}

// SLOEpisodeResult is one observed firing episode from the battery
// replay, joined against the seeded window that explains it (-1 = none:
// a false positive).
type SLOEpisodeResult struct {
	Objective  string
	Start, End uint64
	PeakBurn   float64
	Window     int
}

// SLOBattery is the seeded-violation half of the suite: a single-machine
// fleet under steady batch load whose CAER-M monitor is forced down over
// known windows. Every window must raise exactly one firing alert on the
// degraded-ticks budget objective and nothing else may fire.
type SLOBattery struct {
	Horizon  int
	Windows  []SLOWindow
	Episodes []SLOEpisodeResult
	// AlertsFired is the live engine's completed-episode count (the
	// caer_slo_alerts_total sum); FalsePositives counts replay episodes
	// with no seeded window.
	AlertsFired    int
	FalsePositives int
}

// SLORegime is the SLO regime suite's result: the FleetSuite cluster
// compared across least-pressure, telemetry-fed, and telemetry-outage
// placement with per-node SLO engines armed, plus the seeded-violation
// alert battery that pins the burn-rate state machine end to end.
type SLORegime struct {
	Machines   int
	Sensitive  string
	Background string
	Curve      string
	Rate       float64
	Horizon    int
	Seed       int64

	// Quantile/Bound/Window declare the per-node latency objective of the
	// policy rows ("p<Quantile> of request latency < Bound periods").
	Quantile float64
	Bound    float64
	Window   int

	Policies []SLOPolicyResult
	Battery  SLOBattery

	// Doctor bundle bytes (battery run), written by WriteDoctorBundle and
	// deliberately unexported so the JSON artifact stays a pure result.
	series, events, trace, objectives []byte
}

// alertsFired sums every node SLO engine's fired alert episodes — the
// caer_slo_alerts_total family across the fleet.
func alertsFired(c *fleet.Cluster) (total int) {
	for _, n := range c.Nodes() {
		if e := n.SLO(); e != nil {
			total += int(e.Fired())
		}
	}
	return total
}

// SLOSuite runs the SLO regime suite (DESIGN.md §15) on the fleet suite's
// cluster (newFleetFixture) with every machine's worker pool sized to
// workers. Byte-comparing BENCH_slo.json across worker counts pins the
// determinism contract for the whole telemetry data plane (scrape → parse
// → place) and the SLO engine.
func SLOSuite(seed int64, quick bool, workers int) SLORegime {
	f := newFleetFixture(quick, workers)
	sloCfg := fleet.SLOConfig{
		LatencyQuantile: 0.99, LatencyBound: 1024, Window: 64,
	}
	out := SLORegime{
		Machines:   len(f.machines),
		Sensitive:  spec.ShortName(f.mcf.Name),
		Background: spec.ShortName(f.namd.Name),
		Curve:      f.traffic.Curve.String(),
		Rate:       f.traffic.Rate,
		Horizon:    f.traffic.Horizon,
		Seed:       seed,
		Quantile:   sloCfg.LatencyQuantile,
		Bound:      sloCfg.LatencyBound,
		Window:     sloCfg.Window,
	}

	type rowConfig struct {
		name    string
		policy  fleet.Policy
		scraper fleet.Scraper
	}
	rows := []rowConfig{
		{name: "least-pressure", policy: fleet.PolicyLeastPressure},
		{name: "telemetry", policy: fleet.PolicyTelemetry},
		{name: "telemetry-outage", policy: fleet.PolicyTelemetry,
			scraper: fleet.ScraperFunc(func(int, io.Writer) error {
				return fmt.Errorf("forced scrape outage")
			})},
	}
	for _, row := range rows {
		c := fleet.New(fleet.Config{
			Machines:     f.machines,
			Sched:        f.sched,
			Policy:       row.policy,
			Traffic:      f.traffic,
			Seed:         seed,
			MaxPeriods:   400_000,
			SLO:          sloCfg,
			ScrapePeriod: 4,
			Scraper:      row.scraper,
		})
		c.Run()
		rep := c.Report()
		lat := rep.MergedLatency(out.Sensitive)
		pr := SLOPolicyResult{
			Name:        row.name,
			Ticks:       rep.Ticks,
			Arrivals:    rep.Arrivals,
			Completed:   rep.Completed,
			Throughput:  rep.Throughput(),
			Requests:    int(lat.N()),
			AlertsFired: alertsFired(c),
		}
		if lat.N() > 0 {
			pr.P50 = lat.Quantile(0.5)
			pr.P99 = lat.Quantile(0.99)
		}
		for _, n := range rep.Nodes {
			pr.MachineDispatches = append(pr.MachineDispatches, n.Dispatches)
		}
		for _, d := range c.Decisions() {
			if d.Fresh {
				pr.FreshDecisions++
			}
		}
		out.Policies = append(out.Policies, pr)
	}

	out.runBattery(seed, f, workers)
	return out
}

// batteryObjectives is the battery's armed objective set: the seeded
// degraded-ticks budget plus a latency objective with a bound far above
// anything the lightly loaded battery machine produces — armed precisely
// so "zero false positives" is a claim about more than one objective.
func batteryObjectives() []slo.Objective {
	return []slo.Objective{
		{
			Name:   "degraded-budget",
			Metric: "caer_fleet_node_degraded_ticks_total",
			Kind:   slo.KindBudget, Budget: 0.25,
			Window: 64,
		},
		{
			Name:    "latency-mcf",
			Metric:  "caer_fleet_request_latency_periods",
			LabelKV: []string{"service", "mcf"},
			Kind:    slo.KindQuantile, Quantile: 0.99, Bound: 3500,
			Window: 64,
		},
	}
}

// runBattery runs the seeded-violation battery and fills out.Battery plus
// the doctor bundle bytes: a single 4-core machine hosting the sensitive
// mcf service under steady batch load, with the CAER-M monitor forced
// down over three known windows. Replaying the node's series dump must
// find exactly one firing episode per window and nothing else.
func (out *SLORegime) runBattery(seed int64, f fleetFixture, workers int) {
	windows := []SLOWindow{{600, 1000}, {1600, 2000}, {2600, 3000}}
	const horizon = 3600

	var selfOps atomic.Uint64
	spans := telemetry.NewSpanRecorder(1<<18, &selfOps)
	c := fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{{
			Cores: 4, Domains: 2, Workers: workers,
			Services: []fleet.Service{{Profile: f.mcf, Core: 0, Relaunch: true}},
		}},
		Sched:  f.sched,
		Policy: fleet.PolicyTelemetry,
		// Saturating load: the offered core-demand (rate x job length) sits
		// well above the 3 batch cores at either scale, so the sensitive
		// domain's spare core always hosts an engine-managed job — the
		// engine whose watchdog the seeded monitor outages trip.
		Traffic: fleet.Traffic{
			Curve: fleet.CurveConstant, Rate: 0.0375 * float64(f.scale), Horizon: horizon,
			Mix: []spec.Profile{f.lbm, f.povray},
		},
		Seed:       seed,
		MaxPeriods: 100_000,
		SLO: fleet.SLOConfig{
			LatencyQuantile: 0.99, LatencyBound: 3500,
			DegradedBudget: 0.25, Window: 64,
		},
		SeriesCapacity: 1 << 15, // retain the whole run for the replay
		ScrapePeriod:   4,
		Spans:          spans,
	})
	node := c.Nodes()[0]
	mon := node.Sched().Monitor(0)
	for !c.Done() && c.Ticks() < 100_000 {
		t := c.Ticks()
		for _, w := range windows {
			if t == w.Start {
				mon.SetDown(true)
			}
			if t == w.End {
				mon.SetDown(false)
			}
		}
		c.Tick()
	}
	// The loop above drives Tick itself, so nothing else stops the pool.
	node.Machine().StopWorkers()

	// Dump the series and replay it — the doctor's exact path: the
	// parsed dump, not the live store, drives the episode accounting.
	var seriesBuf bytes.Buffer
	if err := node.Series().WriteDump(&seriesBuf); err != nil {
		panic(err)
	}
	parsed, err := telemetry.ParseSeries(bytes.NewReader(seriesBuf.Bytes()))
	if err != nil {
		panic(err)
	}
	objs := batteryObjectives()
	reports, err := slo.Replay(parsed, objs)
	if err != nil {
		panic(err)
	}

	b := SLOBattery{
		Horizon:     horizon,
		Windows:     windows,
		AlertsFired: alertsFired(c),
	}
	// A window explains an episode when the episode starts inside it or
	// in its decay tail (one slow window past the end, while the burn
	// drains back under the threshold).
	explains := func(w SLOWindow, ep slo.Episode) bool {
		return ep.Start >= uint64(w.Start) && ep.Start < uint64(w.End+64)
	}
	for _, r := range reports {
		for _, ep := range r.Episodes {
			res := SLOEpisodeResult{
				Objective: r.Objective.Name,
				Start:     ep.Start, End: ep.End,
				PeakBurn: ep.PeakBurn,
				Window:   -1,
			}
			for wi, w := range windows {
				if r.Objective.Name == "degraded-budget" && explains(w, ep) {
					res.Window = wi
					break
				}
			}
			if res.Window == -1 {
				b.FalsePositives++
			}
			b.Episodes = append(b.Episodes, res)
		}
	}
	out.Battery = b

	// Doctor bundle: series + decision logs + span trace + objectives.
	var eventsBuf, traceBuf, objBuf bytes.Buffer
	if err := c.WriteEvents(&eventsBuf); err != nil {
		panic(err)
	}
	if err := spans.WriteChrome(&traceBuf); err != nil {
		panic(err)
	}
	enc := json.NewEncoder(&objBuf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(objs); err != nil {
		panic(err)
	}
	out.series = seriesBuf.Bytes()
	out.events = eventsBuf.Bytes()
	out.trace = traceBuf.Bytes()
	out.objectives = objBuf.Bytes()
}

// Check enforces the SLO regime gates: telemetry-fed placement matches or
// beats least-pressure on sensitive p99 at equal admitted throughput, the
// forced scrape outage reproduces least-pressure exactly, and the alert
// battery flags every seeded violation exactly once with zero false
// positives.
func (r SLORegime) Check() error {
	find := func(name string) *SLOPolicyResult {
		for i := range r.Policies {
			if r.Policies[i].Name == name {
				return &r.Policies[i]
			}
		}
		return nil
	}
	lp, tel, outage := find("least-pressure"), find("telemetry"), find("telemetry-outage")
	if lp == nil || tel == nil || outage == nil {
		return fmt.Errorf("slo regime missing a policy row")
	}
	for _, p := range []*SLOPolicyResult{lp, tel, outage} {
		if p.Completed != p.Arrivals {
			return fmt.Errorf("%s did not drain: %d/%d", p.Name, p.Completed, p.Arrivals)
		}
	}
	if tel.Completed != lp.Completed {
		return fmt.Errorf("admitted throughput unequal: telemetry %d, least-pressure %d",
			tel.Completed, lp.Completed)
	}
	if tel.Requests == 0 || lp.Requests == 0 {
		return fmt.Errorf("sensitive service recorded no requests")
	}
	if tel.P99 > lp.P99 {
		return fmt.Errorf("telemetry p99 %.0f exceeds least-pressure p99 %.0f", tel.P99, lp.P99)
	}
	if tel.FreshDecisions == 0 {
		return fmt.Errorf("telemetry row never placed on a fresh scraped view")
	}
	if outage.FreshDecisions != 0 {
		return fmt.Errorf("outage row placed %d decisions on supposedly fresh views", outage.FreshDecisions)
	}
	if fmt.Sprint(outage.MachineDispatches) != fmt.Sprint(lp.MachineDispatches) ||
		outage.P99 != lp.P99 || outage.P50 != lp.P50 || outage.Completed != lp.Completed {
		return fmt.Errorf("scrape outage did not degrade to least-pressure: dispatches %v vs %v, p99 %.0f vs %.0f",
			outage.MachineDispatches, lp.MachineDispatches, outage.P99, lp.P99)
	}

	b := r.Battery
	if b.FalsePositives != 0 {
		return fmt.Errorf("alert battery raised %d false positives", b.FalsePositives)
	}
	if len(b.Episodes) != len(b.Windows) {
		return fmt.Errorf("alert battery raised %d episodes for %d seeded violations",
			len(b.Episodes), len(b.Windows))
	}
	covered := make(map[int]int)
	for _, ep := range b.Episodes {
		covered[ep.Window]++
	}
	for wi := range b.Windows {
		if covered[wi] != 1 {
			return fmt.Errorf("seeded violation %d raised %d firing alerts, want exactly 1", wi, covered[wi])
		}
	}
	if b.AlertsFired != len(b.Windows) {
		return fmt.Errorf("live engine fired %d alerts for %d seeded violations", b.AlertsFired, len(b.Windows))
	}
	return nil
}

// Table returns the policy comparison as a table.
//
//caer:deterministic
func (r SLORegime) Table() *report.Table {
	t := report.NewTable("policy", "completed", "jobs/kperiod",
		"svc_p50", "svc_p99", "alerts", "fresh_decisions", "dispatches")
	for _, p := range r.Policies {
		t.AddRow(p.Name,
			fmt.Sprintf("%d/%d", p.Completed, p.Arrivals),
			fmt.Sprintf("%.2f", p.Throughput),
			fmt.Sprintf("%.0f", p.P50),
			fmt.Sprintf("%.0f", p.P99),
			fmt.Sprintf("%d", p.AlertsFired),
			fmt.Sprintf("%d", p.FreshDecisions),
			fmt.Sprintf("%v", p.MachineDispatches))
	}
	return t
}

// Render writes the SLO regime summary: the policy table plus the alert
// battery's episode accounting.
func (r SLORegime) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"SLO regimes (DESIGN.md §15): %d machines — p%.0f(%s latency) < %.0f periods, window %d — %s traffic, rate %.3f over %d periods\n",
		r.Machines, r.Quantile*100, r.Sensitive, r.Bound, r.Window,
		r.Curve, r.Rate, r.Horizon); err != nil {
		return err
	}
	if err := r.Table().Render(w); err != nil {
		return err
	}
	var eps []string
	for _, ep := range r.Battery.Episodes {
		eps = append(eps, fmt.Sprintf("%s[%d,%d]→w%d", ep.Objective, ep.Start, ep.End, ep.Window))
	}
	_, err := fmt.Fprintf(w,
		"alert battery: %d seeded monitor outages %v → %d firing episodes (%d false positives): %s\n",
		len(r.Battery.Windows), r.Battery.Windows, len(r.Battery.Episodes),
		r.Battery.FalsePositives, strings.Join(eps, ", "))
	return err
}

// Holds is the line printed once Check passes.
func (r SLORegime) Holds() string {
	return "slo gate holds: telemetry placement matches or beats least-pressure on sensitive p99, outage degrades exactly, every seeded violation fired exactly once"
}

// WriteDoctorBundle writes the battery run's diagnosis inputs into dir:
// SLO_series.json (the node's time-series dump), SLO_events.json (fleet +
// scheduler decision logs), SLO_trace.json (Chrome span trace), and
// SLO_objectives.json (the armed objective declarations) — the four files
// caer-doctor joins.
func (r SLORegime) WriteDoctorBundle(dir string) error {
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"SLO_series.json", r.series},
		{"SLO_events.json", r.events},
		{"SLO_trace.json", r.trace},
		{"SLO_objectives.json", r.objectives},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
