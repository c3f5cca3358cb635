//go:build race

package fleet_test

// raceEnabled reports whether the race detector is compiled in. It drops
// sync.Pool items at random, so the scrape's allocation count (whose
// writer renders into a pooled buffer) is asserted only without it.
const raceEnabled = true
