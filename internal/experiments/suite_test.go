package experiments

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caer/internal/runner"
	"caer/internal/spec"
)

// TestSuiteResultSingleflight is the regression test for the duplicate-run
// race: two goroutines both missing the cache between unlock and refill
// used to execute the same scenario twice. Now the loser of the insert race
// must wait for the winner's result instead of re-running.
func TestSuiteResultSingleflight(t *testing.T) {
	var runs atomic.Int64
	s := NewSuite()
	s.runFn = func(sc runner.Scenario) runner.Result {
		runs.Add(1)
		// Hold the "running" state open long enough that every caller
		// overlaps it — under the old code each of them would re-run.
		time.Sleep(20 * time.Millisecond)
		return runner.Result{Completed: true, Periods: 42}
	}
	bench := spec.LBM()

	const callers = 16
	results := make([]runner.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Result(bench, runner.ModeAlone, 0)
		}(i)
	}
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("runner executed %d times for one scenario, want 1", n)
	}
	for i, r := range results {
		if r.Periods != 42 {
			t.Fatalf("caller %d got %+v, want the shared result", i, r)
		}
	}

	// A different scenario still triggers its own run, and a repeat of the
	// first is served from cache.
	s.Result(bench, runner.ModeNativeColo, 0)
	s.Result(bench, runner.ModeAlone, 0)
	if n := runs.Load(); n != 2 {
		t.Fatalf("runner executed %d times across two scenarios, want 2", n)
	}
}

func TestSuiteResultPanicsOnIncompleteRun(t *testing.T) {
	s := NewSuite()
	s.runFn = func(sc runner.Scenario) runner.Result {
		return runner.Result{Completed: false}
	}
	defer func() {
		if recover() == nil {
			t.Error("incomplete run did not panic")
		}
	}()
	s.Result(spec.LBM(), runner.ModeAlone, 0)
}
