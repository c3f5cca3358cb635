package fleet

import (
	"caer/internal/caer"
	"caer/internal/sched"
	"caer/internal/spec"
)

// ScrapeAll runs one scrape of every machine, as Tick does every
// ScrapePeriod ticks under PolicyTelemetry.
func (c *Cluster) ScrapeAll() { c.scrapeAll() }

// Scraped returns machine k's view as last scraped and the tick of its last
// successful scrape (-1: never).
func (c *Cluster) Scraped(k int) (TelView, int) { return c.tel[k].view, c.tel[k].lastTick }

// The fixtures below are shared by the package's internal tests and the
// fleet_test ones, which alias them.

// Prof returns the named profile with its instruction count set to instr.
func Prof(name string, instr uint64) spec.Profile {
	p, ok := spec.ByName(name)
	if !ok {
		panic("unknown profile " + name)
	}
	p.Exec.Instructions = instr
	return p
}

// IdentitySchedConfig is the scheduler every fleet fixture runs: rule-based
// contention-aware placement with aging.
func IdentitySchedConfig() sched.Config {
	return sched.Config{
		Policy:     sched.PolicyContentionAware,
		Heuristic:  caer.HeuristicRule,
		Caer:       caer.DefaultConfig(),
		AgingBound: 200,
	}
}

// TelFleetConfig is the shared metrics-fed fixture: two machines with
// open-loop mcf/namd services, diurnal batch traffic, and the SLO engine
// armed on every node. Placement matters (machines differ in resident
// service), requests flow (Relaunch), and every node exports the full
// telemetry plane the collector reads.
func TelFleetConfig(policy Policy) Config {
	return Config{
		Machines: []MachineSpec{
			{Cores: 8, Domains: 2,
				Services: []Service{{Profile: Prof("mcf", 40_000), Core: 0, Relaunch: true}}},
			{Cores: 8, Domains: 2,
				Services: []Service{{Profile: Prof("namd", 40_000), Core: 0, Relaunch: true}}},
		},
		Sched:  IdentitySchedConfig(),
		Policy: policy,
		Traffic: Traffic{
			Curve: CurveDiurnal, Rate: 0.4, Horizon: 1500,
			Mix: []spec.Profile{Prof("lbm", 50_000), Prof("povray", 50_000)},
		},
		SLO: SLOConfig{
			LatencyQuantile: 0.99, LatencyBound: 2048,
			DegradedBudget: 0.25, Window: 64,
		},
		SeriesCapacity: 128,
		ScrapePeriod:   8,
		Seed:           9,
		MaxPeriods:     20_000,
	}
}
