package fleet

import (
	"io"
	"math"
	"reflect"
	"testing"
)

// The lockstep oracle for the in-process collector: two clusters built from
// one config tick side by side, one collected by the default direct read of
// the handles (readView), the other through a Scraper that renders each
// node's registry as Prometheus text (scrapeText: parse, then foldView).
// After every tick — the scrape runs at the top of one every ScrapePeriod —
// every machine's scrape bookkeeping must agree bit for bit.

// collectorFixture is the shape that makes the direct read's orderings
// matter: a 12-core node whose services sit on cores 0, 2 and 10, declared
// so that service order (namd, mcf, mcf) differs from the order a snapshot
// renders their pressure gauges in (mcf/core 10, mcf/core 2, namd/core 0);
// the two mcf services share one latency histogram; the core-10 one runs to
// completion once instead of relaunching; and the latency bound is low
// enough that the mcf objective fires during the run. A second, plain node
// gives placement a choice.
func collectorFixture() Config {
	cfg := TelFleetConfig(PolicyTelemetry)
	cfg.Machines = []MachineSpec{
		{Cores: 12, Domains: 2, Services: []Service{
			{Profile: Prof("namd", 40_000), Core: 0, Relaunch: true},
			{Profile: Prof("mcf", 100_000), Core: 2, Relaunch: true},
			{Profile: Prof("mcf", 200_000), Core: 10},
		}},
		cfg.Machines[1],
	}
	cfg.SLO.LatencyBound = 16
	return cfg
}

// perturbTails observes one underflow and one overflow sample into every
// node's latency histograms. Request durations are never negative, so
// without it no scrape would render a non-empty underflow tail.
func perturbTails(c *Cluster) {
	for _, n := range c.nodes {
		for _, sv := range n.scrapeLat {
			sv.latency.Observe(-1)
			sv.latency.Observe(2 * latencyHistMax)
		}
	}
}

// scrapeMismatch describes the first difference between two machines'
// scrape bookkeeping, or returns "".
func scrapeMismatch(got, want *telState) string {
	gv, wv := got.view, want.view
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"Pressure", gv.Pressure, wv.Pressure},
		{"Sensitivity", gv.Sensitivity, wv.Sensitivity},
		{"BatchLoad", gv.BatchLoad, wv.BatchLoad},
		{"LatencyP99", gv.LatencyP99, wv.LatencyP99},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			return f.name + " differs"
		}
	}
	if gv.Fresh != wv.Fresh || gv.Age != wv.Age || gv.Burning != wv.Burning || got.lastTick != want.lastTick {
		return "Fresh, Age, Burning or lastTick differs"
	}
	if len(got.lastCums) != len(want.lastCums) {
		return "number of remembered latency series differs"
	}
	for i := range got.lastCums {
		g, w := got.lastCums[i], want.lastCums[i]
		if g.svc != w.svc || len(g.cums) != len(w.cums) {
			return "remembered series " + w.svc + " differs in name or length"
		}
		for j := range g.cums {
			if math.Float64bits(g.cums[j]) != math.Float64bits(w.cums[j]) {
				return "remembered counts of " + w.svc + " differ"
			}
		}
	}
	return ""
}

// lockstepTicks bounds each run: 50 scrapes at the fixtures' ScrapePeriod.
const lockstepTicks = 400

// runLockstep drives the pair for lockstepTicks and returns how many
// machine scrapes saw a firing alert.
func runLockstep(t *testing.T, cfg Config) (burning int) {
	t.Helper()
	direct := New(cfg)
	var text *Cluster
	cfg.Scraper = ScraperFunc(func(k int, w io.Writer) error {
		return text.nodes[k].reg.WritePrometheus(w)
	})
	text = New(cfg)
	defer direct.pool.Stop()
	defer text.pool.Stop()
	for direct.tick < lockstepTicks {
		if direct.tick == 5*cfg.ScrapePeriod {
			perturbTails(direct)
			perturbTails(text)
		}
		scraped := direct.tick%direct.cfg.ScrapePeriod == 0
		direct.Tick()
		text.Tick()
		for k := range direct.tel {
			if msg := scrapeMismatch(&direct.tel[k], &text.tel[k]); msg != "" {
				t.Fatalf("tick %d, machine %d: direct read vs text scrape: %s", direct.tick, k, msg)
			}
			if scraped && direct.tel[k].view.Burning > 0 {
				burning++
			}
		}
	}
	if !reflect.DeepEqual(direct.decisions, text.decisions) {
		t.Fatal("placement decisions differ between the two collectors")
	}
	return burning
}

func TestDirectScrapeMatchesText(t *testing.T) {
	t.Run("telFleetConfig", func(t *testing.T) {
		runLockstep(t, TelFleetConfig(PolicyTelemetry))
	})
	t.Run("twelve-core", func(t *testing.T) {
		cfg := collectorFixture()
		n := New(cfg).nodes[0]
		if n.scrapePressure[0] == n.pressureG[0] || n.services[1].latency != n.services[2].latency {
			t.Fatal("fixture lost its point: service order must differ from label order, and two services must share a histogram")
		}
		if burning := runLockstep(t, cfg); burning == 0 {
			t.Fatal("no scrape saw the fixture's latency objective firing")
		}
	})
}
