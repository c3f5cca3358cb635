// Package teldisc seeds telemetry-discipline fixtures for the name rules:
// family names must be compile-time constants drawn from the spine
// inventory (the seeded module's DESIGN.md §10), wherever the
// registration happens.
package teldisc

import "test/telemetry"

var reg = &telemetry.Registry{}

// Package-level registration with an inventoried constant name: the
// sanctioned pattern, no finding.
var ticks = reg.Counter("caer_engine_ticks_total")

// Package-level registration with a name missing from the inventory.
var rogue = reg.Gauge("caer_rogue_gauge") // want telemetrydiscipline "not in the spine inventory"

// setup registers during initialization — placement is fine (not
// hot-reachable) — but the name rules still apply.
func setup(suffix string) {
	_ = reg.Counter("caer_pmu_reads_total")
	_ = reg.Histogram("caer_engine_hold_" + suffix) // want telemetrydiscipline "not a compile-time constant"
}

var (
	_ = ticks
	_ = rogue
	_ = setup
)
