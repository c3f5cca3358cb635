package sched

import "fmt"

// JobState is a batch job's position in the admission lifecycle.
type JobState int

const (
	// JobWaiting means the job sits in the admission queue.
	JobWaiting JobState = iota
	// JobRunning means the job is placed on a core and executing.
	JobRunning
	// JobDone means the job ran to completion and released its core.
	JobDone
	// JobWithdrawn means the job was pulled back out of the queue before
	// admission (fleet-level cross-machine migration re-dispatches it to
	// another scheduler); it is terminal for this scheduler.
	JobWithdrawn
)

// String names the state.
func (s JobState) String() string {
	switch s {
	case JobWaiting:
		return "waiting"
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobWithdrawn:
		return "withdrawn"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Queue is a FIFO ring of job indices: the scheduler's admission queue and
// the fleet's. The zero value is an empty queue. Peek, Pop, At and Len on
// the per-period path never allocate; Push doubles the ring when a
// submission overflows it — growth happens only on the cold submission path.
type Queue struct {
	buf   []int
	head  int
	count int
}

// Len returns the number of waiting jobs.
func (q *Queue) Len() int { return q.count }

// Push appends job index j at the tail.
func (q *Queue) Push(j int) {
	if q.count == len(q.buf) {
		grown := make([]int, max(1, 2*len(q.buf)))
		for i := 0; i < q.count; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.count)%len(q.buf)] = j
	q.count++
}

// At returns the i-th waiting job index, counting from the head.
func (q *Queue) At(i int) int { return q.buf[(q.head+i)%len(q.buf)] }

// Peek returns the head job index without removing it, or -1 when empty.
func (q *Queue) Peek() int {
	if q.count == 0 {
		return -1
	}
	return q.buf[q.head]
}

// Pop removes and returns the head job index; it panics when empty.
func (q *Queue) Pop() int {
	if q.count == 0 {
		panic("sched: pop from empty job queue")
	}
	j := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return j
}

// Remove deletes the first occurrence of job index j, preserving FIFO
// order of the remainder, and reports whether it was present. Withdrawal
// path only (cold): it compacts by shifting, O(n).
func (q *Queue) Remove(j int) bool {
	for i := 0; i < q.count; i++ {
		if q.buf[(q.head+i)%len(q.buf)] != j {
			continue
		}
		for k := i; k < q.count-1; k++ {
			q.buf[(q.head+k)%len(q.buf)] = q.buf[(q.head+k+1)%len(q.buf)]
		}
		q.count--
		return true
	}
	return false
}
