package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"caer/internal/sched"
	"caer/internal/slo"
	"caer/internal/telemetry"
)

// This file is the fleet's metrics-fed control plane (observability v2):
// each node keeps a per-period time-series store and an SLO burn-rate
// engine over its own registry, and PolicyTelemetry places work by
// periodically scraping each node's exported metrics instead of reading
// classifier summaries synchronously. The in-process collector reads the
// registered handles; text — what /metrics serves — is the transport only
// for an injected Scraper, and the two paths fold to the same bits. A
// scrape that goes stale past the configured horizon degrades that
// machine's scoring to the synchronous least-pressure fallback, so a dead
// telemetry plane can cost signal quality but never liveness.

// SLOConfig declares the per-node objectives the fleet evaluates every
// period. The zero value disables the SLO engine (nodes still keep their
// time-series store for dumps and the doctor).
type SLOConfig struct {
	// LatencyQuantile and LatencyBound declare one objective per open-loop
	// (Relaunch) service: "p<Quantile> of caer_fleet_request_latency_periods
	// < Bound". 0 disables latency objectives.
	LatencyQuantile float64
	LatencyBound    float64
	// DegradedBudget declares a budget objective on the node's fail-open
	// degraded engine ticks: "rate < DegradedBudget per period". 0 disables.
	DegradedBudget float64
	// Window is every declared objective's slow burn window, in periods;
	// default 64. The fast window, the burn factor and the pending dwell
	// take slo.Objective's defaults.
	Window int
}

func (s SLOConfig) enabled() bool { return s.LatencyQuantile > 0 || s.DegradedBudget > 0 }

func (s SLOConfig) withDefaults() SLOConfig {
	if s.Window == 0 {
		s.Window = 64
	}
	return s
}

// objectives builds node n's objective list: one latency objective per
// distinct open-loop service (same-named services share one histogram
// series, hence one objective), plus the degraded-ticks budget.
func (s SLOConfig) objectives(n *Node) []slo.Objective {
	var objs []slo.Objective
	if s.LatencyQuantile > 0 {
		seen := make(map[string]bool, len(n.services))
		for _, sv := range n.services {
			if !sv.relaunch || seen[sv.name] {
				continue
			}
			seen[sv.name] = true
			objs = append(objs, slo.Objective{
				Name:    "latency-" + sv.name,
				Metric:  "caer_fleet_request_latency_periods",
				LabelKV: []string{"service", sv.name},
				Kind:    slo.KindQuantile, Quantile: s.LatencyQuantile, Bound: s.LatencyBound,
				Window: s.Window,
			})
		}
	}
	if s.DegradedBudget > 0 {
		objs = append(objs, slo.Objective{
			Name:   "degraded-budget",
			Metric: "caer_fleet_node_degraded_ticks_total",
			Kind:   slo.KindBudget, Budget: s.DegradedBudget,
			Window: s.Window,
		})
	}
	return objs
}

// Scraper is a text transport PolicyTelemetry can read node registries
// through instead of the default in-process collector: Scrape writes
// machine k's Prometheus text snapshot to w — what the /metrics endpoint
// serves — or returns an error. Outages, foreign line order and malformed
// samples can only arrive this way, so the staleness-fallback and parser
// tests inject one.
type Scraper interface {
	Scrape(machine int, w io.Writer) error
}

// ScraperFunc adapts a function to Scraper.
type ScraperFunc func(machine int, w io.Writer) error

// Scrape implements Scraper.
func (f ScraperFunc) Scrape(machine int, w io.Writer) error { return f(machine, w) }

// TelView is one machine's state as derived purely from its scraped
// metrics — the telemetry analogue of the sched.View that Summarize fills.
// Zero until the first successful scrape.
type TelView struct {
	// Fresh reports the last successful scrape is within the staleness
	// horizon; Age is its distance in ticks (horizon+1 when never scraped).
	Fresh bool
	Age   int
	// Pressure is the summed caer_core_pressure of the machine's latency
	// roles; Sensitivity and BatchLoad mirror the exported node gauges.
	Pressure    float64
	Sensitivity float64
	BatchLoad   float64
	// LatencyP99 is the p99, in periods, of all request latencies observed
	// between the last two scrapes (0 until two scrapes have landed).
	LatencyP99 float64
	// Burning counts the machine's caer_slo_* alerts currently firing.
	Burning int
}

// telState is the cluster's per-machine scrape bookkeeping.
type telState struct {
	view     TelView
	lastTick int // tick of the last successful scrape; -1 = never
	// lastCums remembers each latency series' cumulative bucket counts
	// (finite les ascending, then +Inf) so the next scrape can difference
	// them into a window distribution.
	lastCums []latCums
}

// latCums is one latency series' cumulative bucket counts at a machine's
// last successful scrape.
type latCums struct {
	svc  string
	cums []float64
}

// fresh reports whether the state is within the staleness horizon at tick.
//
//caer:hot
func (t *telState) fresh(tick, horizon int) bool {
	return t.lastTick >= 0 && tick-t.lastTick <= horizon
}

// stalenessHorizon is the scrape age, in ticks, past which a view is stale.
func (c *Cluster) stalenessHorizon() int { return staleScrapes * c.cfg.ScrapePeriod }

// scrapeAll refreshes every machine's TelView. With no Config.Scraper the
// collector reads the node's handles (readView: no allocation once the
// scratch has grown); an injected Scraper's text is parsed and folded
// instead (scrapeText: one allocation per machine, the snapshot's string
// copy). Both fill the same bucket scratch and commit through windowP99. A
// failed text scrape — transport error, malformed line, bad bucket edge —
// leaves the machine's last view standing and its age growing, exactly
// what a dead exporter looks like from a real collector.
//
//caer:cold amortized: the collector runs once every ScrapePeriod ticks, and an injected Scraper's text path allocates (DESIGN.md §15)
func (c *Cluster) scrapeAll() {
	for k, n := range c.nodes {
		var v TelView
		if c.cfg.Scraper == nil {
			v = c.readView(n)
		} else {
			var err error
			if v, err = c.scrapeText(k); err != nil {
				continue
			}
		}
		// Nothing above touched the machine's state: a snapshot commits
		// whole or not at all.
		st := &c.tel[k]
		v.LatencyP99 = c.windowP99(st)
		st.view = v
		st.lastTick = c.tick
	}
}

// readView derives node n's TelView straight from the handles its registry
// renders and groups its latency buckets into c.lat — value for value what
// foldView reads back from a snapshot of the same registry: the pressure
// gauges are summed, and the distinct latency histograms visited, in the
// order a snapshot lists them (Node.orderScrape), and every bucket arrives
// as the snapshot renders it (telemetry.Histogram.EachBucket).
func (c *Cluster) readView(n *Node) TelView {
	v := TelView{Fresh: true, Sensitivity: n.sensitivityG.Value(), BatchLoad: n.batchLoadG.Value()}
	for _, g := range n.scrapePressure {
		v.Pressure += g.Value()
	}
	if n.slo != nil {
		v.Burning = n.slo.Firing()
	}
	c.lat = c.lat[:0]
	for _, sv := range n.scrapeLat {
		s := c.latSeriesFor(sv.name)
		sv.latency.EachBucket(func(le float64, cum uint64) {
			s.buckets = append(s.buckets, bucketSample{le: le, cum: float64(cum)})
		})
	}
	return v
}

// scrapeText reads machine k's snapshot through the injected Scraper,
// parses it into cluster-owned samples, and folds it.
func (c *Cluster) scrapeText(k int) (TelView, error) {
	c.scrapeBuf.Reset()
	if err := c.cfg.Scraper.Scrape(k, &c.scrapeBuf); err != nil {
		return TelView{}, err
	}
	ms, err := telemetry.AppendSamples(c.scrapeSamples[:0], c.scrapeBuf.String())
	if err != nil {
		return TelView{}, err
	}
	c.scrapeSamples = ms
	return c.foldView(ms)
}

// bucketSample is one cumulative histogram bucket parsed from a scrape.
type bucketSample struct {
	le  float64 // upper edge; +Inf for the overflow bucket
	cum float64
}

// latSeries is one service's latency histogram as one scrape rendered it.
type latSeries struct {
	svc     string         // service label; on the text path a substring of the snapshot
	buckets []bucketSample // finite edges ascending, +Inf last
	sorted  bool           // buckets arrived in that order
}

// foldView folds one machine's parsed snapshot into a TelView (all but the
// window p99, which windowP99 adds at commit) and groups the latency
// buckets by service into c.lat. It fails — having changed nothing the
// next scrape or the picker reads — on a bucket edge that is not a number
// >= 0 or +Inf.
func (c *Cluster) foldView(ms []telemetry.TextMetric) (TelView, error) {
	v := TelView{Fresh: true}
	c.lat = c.lat[:0]
	for i := range ms {
		m := &ms[i]
		switch m.Name {
		case "caer_core_pressure":
			if m.Label("role") == "latency" {
				v.Pressure += m.Value
			}
		case "caer_fleet_node_sensitivity":
			v.Sensitivity = m.Value
		case "caer_fleet_node_batch_load":
			v.BatchLoad = m.Value
		case "caer_slo_state":
			if m.Value == float64(slo.StateFiring) {
				v.Burning++
			}
		case "caer_fleet_request_latency_periods_bucket":
			var edge, svc string
			m.EachLabel(func(key, val string) {
				switch key {
				case "le":
					edge = val
				case "service":
					svc = val
				}
			})
			le, err := strconv.ParseFloat(edge, 64)
			if err != nil || math.IsNaN(le) || le < 0 {
				return v, fmt.Errorf("fleet: scrape: bad bucket edge in %s{%s}", m.Name, m.Labels)
			}
			s := c.latSeriesFor(svc)
			if n := len(s.buckets); n > 0 && le < s.buckets[n-1].le {
				s.sorted = false
			}
			s.buckets = append(s.buckets, bucketSample{le: le, cum: m.Value})
		}
	}
	return v, nil
}

// latSeriesFor returns the scratch series collecting svc's buckets in the
// snapshot being folded, opening one at first sight. The registry renders
// a series' buckets contiguously, so the last series is the usual hit.
func (c *Cluster) latSeriesFor(svc string) *latSeries {
	for i := len(c.lat) - 1; i >= 0; i-- {
		if c.lat[i].svc == svc {
			return &c.lat[i]
		}
	}
	if len(c.lat) < cap(c.lat) {
		c.lat = c.lat[:len(c.lat)+1] // reuse the slot's bucket array
	} else {
		c.lat = append(c.lat, latSeries{})
	}
	s := &c.lat[len(c.lat)-1]
	s.svc, s.buckets, s.sorted = svc, s.buckets[:0], true
	return s
}

// windowP99 differences each latency series of the folded snapshot (c.lat)
// against the machine's previous scrape, accumulates every service's
// window distribution in one scratch histogram, and returns its p99 — the
// shared Quantile math, fed from scraped buckets. Returns 0 until two
// scrapes have landed or when the window saw no requests. All caer latency
// histograms start at 0, so the bucket width is the first finite upper
// edge; a series whose last finite edge is not a positive number has no
// such geometry and adds nothing. It commits the snapshot's cumulative
// counts as the next scrape's baseline.
func (c *Cluster) windowP99(st *telState) float64 {
	var window *telemetry.Histogram
	for i := range c.lat {
		s := &c.lat[i]
		bs := s.buckets
		if !s.sorted { // a foreign exporter; the registry renders in order
			sort.Slice(bs, func(a, b int) bool { return bs[a].le < bs[b].le })
		}
		prev := st.cumsFor(s.svc)
		known := len(prev.cums) == len(bs) // else first sight of this series (or geometry changed)
		if !known {
			prev.cums = make([]float64, len(bs))
		}
		if finite := len(bs) - 1; known && finite >= 1 && bs[finite-1].le > 0 && !math.IsInf(bs[finite-1].le, 1) {
			width, max := bs[0].le, bs[finite-1].le
			if window == nil {
				window = c.windowHist(max, finite)
			}
			lastCum := 0.0
			for j, b := range bs {
				d := (b.cum - prev.cums[j]) - lastCum
				lastCum = b.cum - prev.cums[j]
				if d <= 0 {
					continue
				}
				if math.IsInf(b.le, 1) { // overflow
					window.AddN(max, uint64(d))
				} else {
					window.AddN(b.le-width/2, uint64(d))
				}
			}
		}
		for j, b := range bs {
			prev.cums[j] = b.cum
		}
	}
	if window == nil || window.N() == 0 {
		return 0
	}
	return window.Quantile(0.99)
}

// cumsFor returns the machine's remembered counts for service svc, opening
// an empty record at first sight (svc is cloned: it points into a snapshot
// the record outlives).
func (t *telState) cumsFor(svc string) *latCums {
	for i := range t.lastCums {
		if t.lastCums[i].svc == svc {
			return &t.lastCums[i]
		}
	}
	t.lastCums = append(t.lastCums, latCums{svc: strings.Clone(svc)})
	return &t.lastCums[len(t.lastCums)-1]
}

// windowHist returns the cluster's scratch window histogram, emptied, over
// [0, max) in the given number of buckets.
func (c *Cluster) windowHist(max float64, buckets int) *telemetry.Histogram {
	if c.latHist == nil || c.latHistMax != max || c.latHist.Buckets() != buckets {
		c.latHist, c.latHistMax = telemetry.NewHistogram(0, max, buckets), max
	}
	c.latHist.Reset()
	return c.latHist
}

// fillTelViews copies the scrape bookkeeping into the placement views.
// Hot path (every dispatch decision): allocation-free.
func (c *Cluster) fillTelViews() {
	horizon := c.stalenessHorizon()
	for k := range c.tel {
		st := &c.tel[k]
		v := st.view
		if st.lastTick < 0 {
			v.Age = horizon + 1
			v.Fresh = false
		} else {
			v.Age = c.tick - st.lastTick
			v.Fresh = v.Age <= horizon
		}
		c.cand.views[k].Tel = v
	}
}

// DecisionKind classifies a fleet decision-log entry.
type DecisionKind int

const (
	// DecisionDispatch records a job leaving the fleet queue for a machine.
	DecisionDispatch DecisionKind = iota
	// DecisionMigrate records a queued job moving between machines.
	DecisionMigrate
)

// String names the kind.
func (k DecisionKind) String() string {
	switch k {
	case DecisionDispatch:
		return "dispatch"
	case DecisionMigrate:
		return "migrate"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is one entry of the fleet placement timeline — the provenance
// record caer-doctor joins against SLO burn windows.
type Decision struct {
	Tick int          `json:"tick"`
	Kind DecisionKind `json:"kind"`
	Job  int          `json:"job"`
	Name string       `json:"name"`
	From int          `json:"from"` // source machine; -1 for dispatches
	To   int          `json:"to"`
	// Fresh records whether the target machine's telemetry view was fresh
	// at decision time (always false under non-telemetry policies).
	Fresh bool `json:"fresh"`
}

// Decisions returns a copy of the fleet placement timeline.
func (c *Cluster) Decisions() []Decision {
	out := make([]Decision, len(c.decisions))
	copy(out, c.decisions)
	return out
}

// EventsDump is the engine-event log bundle caer-doctor reads: the fleet
// placement timeline plus every machine's scheduler decision log.
type EventsDump struct {
	Policy string     `json:"policy"`
	Ticks  int        `json:"ticks"`
	Fleet  []Decision `json:"fleet"`
	// Machines[k] is machine k's sched decision timeline (admissions,
	// intra-machine migrations, completions, withdrawals).
	Machines [][]sched.Decision `json:"machines"`
}

// WriteEvents writes the fleet + per-machine decision logs as JSON.
// Export path: allocates.
func (c *Cluster) WriteEvents(w io.Writer) error {
	d := EventsDump{
		Policy: c.cfg.Policy.String(),
		Ticks:  c.tick,
		Fleet:  c.Decisions(),
	}
	for _, n := range c.nodes {
		d.Machines = append(d.Machines, n.sched.Decisions())
	}
	return json.NewEncoder(w).Encode(&d)
}

// ParseEvents reads a WriteEvents dump back (the doctor's side).
func ParseEvents(r io.Reader) (*EventsDump, error) {
	var d EventsDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("fleet: parse events: %w", err)
	}
	return &d, nil
}

// syncTelemetry refreshes node n's exported gauges, takes the period's
// time-series sample, and runs the SLO evaluation. Runs once per tick per
// node, after the machines stepped. Hot path: allocation-free (the
// registry was fully populated at construction, so Sample never extends).
func (n *Node) syncTelemetry() {
	n.sched.Summarize(&n.sum)
	n.freeCoresG.Set(float64(n.sum.FreeCores))
	n.sensitivityG.Set(n.sum.Sensitivity)
	n.batchLoadG.Set(n.sum.BatchLoad)
	n.sched.LatencyPressure(n.pressureBuf)
	for i := range n.pressureG {
		n.pressureG[i].Set(n.pressureBuf[i])
	}
	d := n.sched.DegradedTicks()
	n.degraded.Add(d - n.lastDegraded)
	n.lastDegraded = d
	n.series.Sample()
	if n.slo != nil {
		n.slo.Evaluate()
	}
}

// orderScrape fixes the order readView visits node n's handles in: the
// order a snapshot lists their series, sorted by rendered label set — by
// app, then by core as a string, so core="10" precedes core="2". Summed in
// that order, the pressure gauges round exactly as foldView's sum of the
// parsed samples does. The latency histograms come out sorted by service
// name, one per distinct name (same-named services share one series).
func (n *Node) orderScrape() {
	byLabels := make([]int, len(n.services))
	labels := make([]string, len(n.services))
	for i, sv := range n.services {
		byLabels[i] = i
		labels[i] = fmt.Sprintf("app=%q,core=%q", sv.name, strconv.Itoa(sv.core))
	}
	sort.Slice(byLabels, func(a, b int) bool { return labels[byLabels[a]] < labels[byLabels[b]] })
	for _, i := range byLabels {
		sv := n.services[i]
		n.scrapePressure = append(n.scrapePressure, n.pressureG[i])
		if last := len(n.scrapeLat) - 1; last < 0 || n.scrapeLat[last].latency != sv.latency {
			n.scrapeLat = append(n.scrapeLat, sv)
		}
	}
}

// Series exposes the node's per-period time-series store.
func (n *Node) Series() *telemetry.Series { return n.series }

// SLO exposes the node's SLO engine (nil when Config.SLO is zero).
func (n *Node) SLO() *slo.Engine { return n.slo }
