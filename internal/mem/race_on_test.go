//go:build race

package mem

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates and slows the per-step lockstep comparison
// fifty-fold, so the set-up allocation budget is checked only without it
// and the lockstep streams are shortened under it.
const raceEnabled = true
