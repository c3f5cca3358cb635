//go:build race

package telemetry

// raceEnabled reports whether the race detector is compiled in. It drops
// sync.Pool items at random, so allocation counts that rely on the
// exposition writer's pooled buffer are asserted only without it.
const raceEnabled = true
