package fleet_test

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"caer/internal/fleet"
	"caer/internal/telemetry"
)

// telFingerprint reduces a finished cluster to comparable bytes: job and
// service reports plus the fleet decision log.
func telFingerprint(t *testing.T, c *fleet.Cluster) []byte {
	t.Helper()
	rep := c.Report()
	var sb strings.Builder
	sb.Write(mustJSON(t, rep.Jobs))
	sb.Write(mustJSON(t, rep.Services))
	sb.Write(mustJSON(t, c.Decisions()))
	return []byte(sb.String())
}

// TestPolicyTelemetryRuns pins the metrics-fed policy end to end: the
// cluster drains, placement decisions record fresh scraped views, and two
// identical runs are byte-identical (collection → view derivation → score
// is deterministic).
func TestPolicyTelemetryRuns(t *testing.T) {
	run := func() (*fleet.Cluster, []byte) {
		c := fleet.New(telFleetConfig(fleet.PolicyTelemetry))
		c.Run()
		return c, telFingerprint(t, c)
	}
	c, base := run()
	rep := c.Report()
	if rep.Completed != rep.Arrivals || rep.Arrivals == 0 {
		t.Fatalf("%d of %d jobs completed", rep.Completed, rep.Arrivals)
	}
	ds := c.Decisions()
	if len(ds) == 0 {
		t.Fatal("empty fleet decision log")
	}
	fresh := 0
	for _, d := range ds {
		if d.Kind == fleet.DecisionDispatch && d.From != -1 {
			t.Fatalf("dispatch decision %+v has a source machine", d)
		}
		if d.Fresh {
			fresh++
		}
	}
	if fresh == 0 {
		t.Error("no placement decision ever saw a fresh telemetry view")
	}
	if _, again := run(); !bytes.Equal(base, again) {
		t.Fatal("two identical PolicyTelemetry runs diverged")
	}
}

// TestTelemetryOutageMatchesLeastPressure is the staleness-fallback pin
// from the acceptance list: with the scraper hard down, every machine is
// stale past the horizon forever, so PolicyTelemetry must reproduce
// PolicyLeastPressure exactly — same decision log, same per-job report.
func TestTelemetryOutageMatchesLeastPressure(t *testing.T) {
	cfg := telFleetConfig(fleet.PolicyTelemetry)
	cfg.Scraper = fleet.ScraperFunc(func(int, io.Writer) error {
		return errors.New("collector down")
	})
	out := fleet.New(cfg)
	out.Run()
	for _, d := range out.Decisions() {
		if d.Fresh {
			t.Fatalf("decision %+v marked fresh during a total scrape outage", d)
		}
	}
	lp := fleet.New(telFleetConfig(fleet.PolicyLeastPressure))
	lp.Run()
	if !bytes.Equal(telFingerprint(t, out), telFingerprint(t, lp)) {
		t.Fatal("scrape outage did not degrade PolicyTelemetry to PolicyLeastPressure")
	}
}

// TestScrapeRejectsBadBucketEdge: a latency bucket whose `le` is not a
// number >= 0 fails that machine's scrape like any other parse error — the
// view stays at its last good value and its age keeps growing — instead of
// reading as le = 0, which used to become windowP99's bucket width and skew
// the machine's scraped p99. The other machine, and the next clean scrape
// of the same one, are unaffected.
func TestScrapeRejectsBadBucketEdge(t *testing.T) {
	cfg := telFleetConfig(fleet.PolicyTelemetry)
	var c *fleet.Cluster
	corrupt, edgeText := false, "" // while corrupt, machine 0's le="2048" edge reads le="<edgeText>"
	cfg.Scraper = fleet.ScraperFunc(func(k int, w io.Writer) error {
		var buf bytes.Buffer
		if err := c.Nodes()[k].Registry().WritePrometheus(&buf); err != nil {
			return err
		}
		snap := buf.Bytes()
		if k == 0 && corrupt {
			edge := []byte(`service="mcf",le="2048"`)
			if !bytes.Contains(snap, edge) {
				t.Fatalf("machine 0 snapshot has no %s bucket", edge)
			}
			snap = bytes.Replace(snap, edge, []byte(`service="mcf",le="`+edgeText+`"`), 1)
		}
		_, err := w.Write(snap)
		return err
	})
	c = fleet.New(cfg)
	period := cfg.ScrapePeriod
	for i := 0; i < 25*period; i++ {
		c.Tick()
	}
	for _, bad := range []string{"2o48", "", "NaN", "-16", "-Inf", "1e999"} {
		good0, tick0 := c.Scraped(0)
		_, tick1 := c.Scraped(1)
		if tick0 < 0 || tick0 != tick1 || !good0.Fresh {
			t.Fatalf("before le=%q: machine 0 scraped at %d (fresh %v), machine 1 at %d", bad, tick0, good0.Fresh, tick1)
		}
		corrupt, edgeText = true, bad
		for i := 0; i < period; i++ {
			c.Tick()
		}
		if v, tick := c.Scraped(0); v != good0 || tick != tick0 {
			t.Errorf("le=%q: machine 0's view moved to %+v at tick %d, want the last good %+v of tick %d", bad, v, tick, good0, tick0)
		}
		if _, tick := c.Scraped(1); tick != tick1+period {
			t.Errorf("le=%q: machine 1 last scraped at %d, want %d", bad, tick, tick1+period)
		}
		corrupt = false
		for i := 0; i < period; i++ {
			c.Tick()
		}
		if _, tick := c.Scraped(0); tick != tick0+2*period {
			t.Errorf("after le=%q: machine 0 last scraped at %d, want recovery at %d", bad, tick, tick0+2*period)
		}
	}
}

// TestScrapeLineOrderInsensitive: the exposition format fixes no line
// order, so a transport that hands the collector each snapshot's lines in
// reverse (bucket edges descending, +Inf first) must place every job
// exactly as the in-order default does.
func TestScrapeLineOrderInsensitive(t *testing.T) {
	cfg := telFleetConfig(fleet.PolicyTelemetry)
	var c *fleet.Cluster
	cfg.Scraper = fleet.ScraperFunc(func(k int, w io.Writer) error {
		var buf bytes.Buffer
		if err := c.Nodes()[k].Registry().WritePrometheus(&buf); err != nil {
			return err
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		for i, j := 0, len(lines)-1; i < j; i, j = i+1, j-1 {
			lines[i], lines[j] = lines[j], lines[i]
		}
		_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
		return err
	})
	c = fleet.New(cfg)
	c.Run()
	inOrder := fleet.New(telFleetConfig(fleet.PolicyTelemetry))
	inOrder.Run()
	if !bytes.Equal(telFingerprint(t, c), telFingerprint(t, inOrder)) {
		t.Fatal("reversing the snapshot's lines changed placement")
	}
}

// scrapedCluster is the telemetry fixture 100 ticks in, collected either by
// the default in-process reader or, with text set, through a Scraper that
// renders each node's registry as the /metrics endpoint would.
func scrapedCluster(text bool) *fleet.Cluster {
	cfg := telFleetConfig(fleet.PolicyTelemetry)
	var c *fleet.Cluster
	if text {
		cfg.Scraper = fleet.ScraperFunc(func(k int, w io.Writer) error {
			return c.Nodes()[k].Registry().WritePrometheus(w)
		})
	}
	c = fleet.New(cfg)
	for i := 0; i < 100; i++ {
		c.Tick()
	}
	return c
}

// TestScrapeAllocs pins the steady-state default collector: reading a
// machine's handles allocates nothing.
func TestScrapeAllocs(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		c := scrapedCluster(false)
		if perNode := testing.AllocsPerRun(20, c.ScrapeAll) / float64(len(c.Nodes())); perNode != 0 {
			t.Fatalf("a steady-state machine scrape allocates %v times, want 0", perNode)
		}
	})
}

func BenchmarkScrapeAll(b *testing.B) {
	for _, tc := range []struct {
		name string
		text bool
	}{{"direct", false}, {"text", true}} {
		b.Run(tc.name, func(b *testing.B) {
			c := scrapedCluster(tc.text)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.ScrapeAll()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.Nodes())), "ns/machine")
		})
	}
}

// TestFleetEventsRoundTrip pins the decision-log dump caer-doctor reads:
// every arrival appears as exactly one dispatch entry, and the JSON dump
// re-encodes byte-identically after a parse.
func TestFleetEventsRoundTrip(t *testing.T) {
	c := fleet.New(telFleetConfig(fleet.PolicyTelemetry))
	c.Run()
	rep := c.Report()
	dispatches := 0
	for _, d := range c.Decisions() {
		if d.Kind == fleet.DecisionDispatch {
			dispatches++
		}
	}
	if dispatches != rep.Arrivals {
		t.Fatalf("%d dispatch decisions for %d arrivals", dispatches, rep.Arrivals)
	}
	var buf bytes.Buffer
	if err := c.WriteEvents(&buf); err != nil {
		t.Fatalf("WriteEvents: %v", err)
	}
	d, err := fleet.ParseEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseEvents: %v", err)
	}
	if d.Policy != "telemetry" || d.Ticks != c.Ticks() {
		t.Fatalf("parsed header policy=%q ticks=%d, want telemetry/%d", d.Policy, d.Ticks, c.Ticks())
	}
	if len(d.Machines) != 2 {
		t.Fatalf("parsed %d machine logs, want 2", len(d.Machines))
	}
	enc := mustJSON(t, d)
	if !bytes.Equal(append(enc, '\n'), buf.Bytes()) {
		t.Error("events dump is not parse/re-encode stable")
	}
}

// TestNodeTelemetryPlane pins the per-node observability plumbing: every
// node samples its series once per tick, runs its SLO engine, and exports
// the caer_series_* / caer_slo_* families through its registry — the
// bytes the scraper, caer-top, and the doctor all consume.
func TestNodeTelemetryPlane(t *testing.T) {
	c := fleet.New(telFleetConfig(fleet.PolicyTelemetry))
	c.Run()
	for k, n := range c.Nodes() {
		s := n.Series()
		if s == nil || s.Samples() != c.Ticks() {
			t.Fatalf("machine %d series sampled %d periods, want %d", k, s.Samples(), c.Ticks())
		}
		eng := n.SLO()
		if eng == nil {
			t.Fatalf("machine %d has no SLO engine despite SLOConfig", k)
		}
		var sb strings.Builder
		if err := n.Registry().WritePrometheus(&sb); err != nil {
			t.Fatalf("machine %d scrape: %v", k, err)
		}
		text := sb.String()
		if got := strings.Count(text, "\ncaer_slo_state{"); got != 2 {
			t.Fatalf("machine %d exports %d objective states, want latency + degraded-budget", k, got)
		}
		for _, name := range []string{
			"caer_series_samples_total", "caer_series_tracks",
			"caer_slo_state", "caer_slo_burn_slow", "caer_slo_evals_total",
			"caer_fleet_node_degraded_ticks_total", "caer_core_pressure",
		} {
			if !strings.Contains(text, name) {
				t.Errorf("machine %d snapshot missing %s", k, name)
			}
		}
		ms, err := telemetry.ParseText(strings.NewReader(text))
		if err != nil {
			t.Fatalf("machine %d snapshot unparseable: %v", k, err)
		}
		for _, m := range ms {
			if m.Name == "caer_slo_evals_total" && m.Value != float64(c.Ticks()) {
				t.Errorf("machine %d ran %v SLO evals over %d ticks", k, m.Value, c.Ticks())
			}
		}
	}
}

// TestNodeSeriesDumpReplayable pins the doctor's input contract: a node's
// live series dump parses back and serves windowed queries over the same
// metric names the SLO objectives reference.
func TestNodeSeriesDumpReplayable(t *testing.T) {
	cfg := telFleetConfig(fleet.PolicyTelemetry)
	c := fleet.New(cfg)
	c.Run()
	n := c.Nodes()[0]
	var buf bytes.Buffer
	if err := n.Series().WriteDump(&buf); err != nil {
		t.Fatalf("WriteDump: %v", err)
	}
	parsed, err := telemetry.ParseSeries(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseSeries over live dump: %v", err)
	}
	if parsed.Samples() != n.Series().Samples() {
		t.Fatalf("parsed %d samples, live has %d", parsed.Samples(), n.Series().Samples())
	}
	tr, ok := parsed.Lookup("caer_fleet_request_latency_periods", "service", "mcf")
	if !ok {
		t.Fatal("parsed series lost the mcf latency histogram track")
	}
	live, _ := n.Series().Lookup("caer_fleet_request_latency_periods", "service", "mcf")
	end, window, bound := parsed.Samples(), parsed.Retained(), cfg.SLO.LatencyBound
	if a, b := n.Series().OverShareAt(live, end, window, bound), parsed.OverShareAt(tr, end, window, bound); a != b || b < 0 || b > 1 {
		t.Fatalf("over-bound share: live %v, parsed %v; want equal, within [0,1]", a, b)
	}
}
