package fleet

import (
	"fmt"

	"caer/internal/spec"
)

// JobState is a job's position in the fleet-level lifecycle. It sits above
// sched.JobState: a dispatched fleet job is waiting, running, or — after a
// cross-machine migration withdrew it — re-dispatched inside some
// machine's scheduler.
type JobState int

const (
	// JobQueued means the job sits in the fleet admission queue, not yet
	// assigned to a machine.
	JobQueued JobState = iota
	// JobDispatched means the job has been submitted to a machine's
	// scheduler (it may still be waiting in that machine's queue).
	JobDispatched
	// JobFinished means the job ran to completion on its machine.
	JobFinished
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobDispatched:
		return "dispatched"
	case JobFinished:
		return "finished"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// job is one fleet work item's record, from open-loop arrival to
// completion.
type job struct {
	name string // short benchmark name (series/report key)
	prof spec.Profile
	idx  int // global arrival index: derives footprint base and seed

	state      JobState
	node       int    // machine currently holding it (-1 while queued)
	schedID    int    // job id inside node's scheduler (-1 while queued)
	arrived    int    // fleet tick the job arrived (0-based)
	admitted   uint64 // node period the job left a machine queue for a core
	doneTick   int    // fleet tick the job completed (0 = not yet)
	migrations int    // cross-machine moves
}
