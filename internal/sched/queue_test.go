package sched

import "testing"

func TestJobQueueFIFO(t *testing.T) {
	var q Queue
	if q.Len() != 0 || q.Peek() != -1 {
		t.Fatal("fresh queue not empty")
	}
	q.Push(10)
	q.Push(11)
	q.Push(12)
	if q.Len() != 3 || q.Peek() != 10 {
		t.Fatalf("len=%d peek=%d, want 3, 10", q.Len(), q.Peek())
	}
	// Wrap the ring (it has grown to 4): pop two, push two, and order must
	// survive.
	if q.Pop() != 10 || q.Pop() != 11 {
		t.Fatal("pop order wrong")
	}
	q.Push(13)
	q.Push(14)
	for i, want := range []int{12, 13, 14} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	if q.Len() != 0 || q.Peek() != -1 {
		t.Error("drained queue not empty")
	}
}

func TestJobQueuePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("pop empty", func() { new(Queue).Pop() })
	mustPanic("pop drained", func() {
		var q Queue
		q.Push(1)
		q.Pop()
		q.Pop()
	})
}

// TestJobQueueGrowth pins that push past the ring's capacity grows it
// (fleet dispatch submits mid-run, beyond the pre-start job count), by
// doubling from 1, and that FIFO order survives growth from a wrapped state.
func TestJobQueueGrowth(t *testing.T) {
	var q Queue
	q.Push(0)
	q.Push(1)
	if q.Pop() != 0 {
		t.Fatal("pop order wrong before growth")
	}
	q.Push(2) // wraps
	q.Push(3) // grows from a wrapped layout
	q.Push(4)
	if cap(q.buf) != 4 {
		t.Fatalf("ring of 4 jobs grew to %d slots, want 1 -> 2 -> 4", cap(q.buf))
	}
	for i, want := range []int{1, 2, 3, 4} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %d after growth, want %d", i, got, want)
		}
	}
	if q.Len() != 0 {
		t.Fatal("drained grown queue not empty")
	}
}

// TestJobQueueRemove pins the withdrawal path: remove deletes the first
// occurrence, preserves FIFO order of the remainder, and reports absence.
func TestJobQueueRemove(t *testing.T) {
	var q Queue
	for _, j := range []int{5, 6, 7, 8} {
		q.Push(j)
	}
	if !q.Remove(6) {
		t.Fatal("remove(6) reported absent")
	}
	if q.Remove(6) {
		t.Fatal("second remove(6) reported present")
	}
	if !q.Remove(8) { // tail removal
		t.Fatal("remove(8) reported absent")
	}
	for i, want := range []int{5, 7} {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = %d after removals, want %d", i, got, want)
		}
	}
}

func TestJobQueueZeroCapacity(t *testing.T) {
	var q Queue
	if q.Len() != 0 || q.Peek() != -1 || q.Remove(0) {
		t.Error("the zero Queue is not a well-formed empty ring")
	}
	q.Push(7)
	if q.Len() != 1 || q.At(0) != 7 || q.Pop() != 7 {
		t.Error("the zero Queue does not take a first job")
	}
}

func TestJobStateStrings(t *testing.T) {
	cases := map[JobState]string{
		JobWaiting:   "waiting",
		JobRunning:   "running",
		JobDone:      "done",
		JobWithdrawn: "withdrawn",
		JobState(7):  "JobState(7)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("JobState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}
