// Package part seeds partition-family fixtures: the spine's caer_part_*
// metric inventory (telemetrydiscipline) and the lock/error discipline of
// an owner-mask table stand-in (lockdiscipline). The real partition types
// live in mem/sched/caer and carry their own //caer: directives; this
// package pins the package-independent rules a partition follow-on would
// trip first.
package part

import (
	"sync"

	"test/telemetry"
)

var reg = &telemetry.Registry{}

// The partition spine families register with inventoried constant names:
// the sanctioned pattern, no findings.
var (
	plans     = reg.Counter("caer_part_plans_total")
	resizes   = reg.Counter("caer_part_resizes_total")
	protected = reg.Gauge("caer_part_protected_ways")
)

// A partition family that drifted from the spine inventory.
var rogue = reg.Counter("caer_part_rogue_total") // want telemetrydiscipline "not in the spine inventory"

// registerOwner builds a per-owner family name at run time, defeating the
// inventory check (per-owner cardinality belongs in labels, not names).
func registerOwner(owner string) {
	_ = reg.Histogram("caer_part_owner_" + owner) // want telemetrydiscipline "not a compile-time constant"
}

// table is a stand-in for an owner-mask table guarded by a mutex.
type table struct {
	mu    sync.Mutex
	masks []uint64
}

// setMask forgets the unlock: a wedged mask table stalls every resize.
func (t *table) setMask(owner int, mask uint64) {
	t.mu.Lock() // want lockdiscipline "t.mu.Lock() without a matching Unlock"
	t.masks[owner] = mask
}

// flush reports teardown corruption through its error.
func (t *table) flush() error { return nil }

// teardown discards flush's error as a bare statement.
func teardown(t *table) {
	t.flush() // want lockdiscipline "error returned by table.flush is discarded"
}

var (
	_ = plans
	_ = resizes
	_ = protected
	_ = rogue
	_ = registerOwner
	_ = teardown
)
