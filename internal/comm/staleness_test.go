package comm

import (
	"sync"
	"testing"
)

func TestSlotSeqAdvancesWithPublishes(t *testing.T) {
	tab := NewTable(4)
	s := tab.Register("x", RoleLatency)
	if s.Published() != 0 {
		t.Fatalf("fresh slot Published = %d, want 0", s.Published())
	}
	for i := 1; i <= 5; i++ {
		s.Publish(float64(i))
		if s.Published() != uint64(i) {
			t.Fatalf("Published after %d publishes = %d", i, s.Published())
		}
	}
	// The sequence counts publishes, not windowed samples: it keeps
	// advancing once the 4-sample window wraps.
	if got := len(s.Samples()); got != 4 {
		t.Errorf("window holds %d samples after 5 publishes, want 4", got)
	}
}

func TestSlotStalePeriodsTracksDeadPublisher(t *testing.T) {
	tab := NewTable(4)
	live := tab.Register("live", RoleLatency)
	dead := tab.Register("dead", RoleLatency)

	// Period 0, nothing bumped or published yet: nothing is stale.
	if live.StalePeriods() != 0 || dead.StalePeriods() != 0 {
		t.Fatal("fresh table reports staleness")
	}

	// Five healthy periods: both publish every period.
	for p := 0; p < 5; p++ {
		tab.BumpPeriod()
		live.Publish(1)
		dead.Publish(1)
		if live.StalePeriods() != 0 || dead.StalePeriods() != 0 {
			t.Fatalf("period %d: healthy publisher reported stale", p)
		}
	}

	// The dead publisher goes silent; its staleness grows one per period
	// while the live one stays fresh.
	for k := 1; k <= 7; k++ {
		tab.BumpPeriod()
		live.Publish(1)
		if got := dead.StalePeriods(); got != uint64(k) {
			t.Fatalf("after %d silent periods StalePeriods = %d", k, got)
		}
		if live.StalePeriods() != 0 {
			t.Fatal("live publisher reported stale")
		}
	}

	// Publishing again clears the staleness immediately.
	dead.Publish(2)
	if got := dead.StalePeriods(); got != 0 {
		t.Fatalf("StalePeriods after resumed publish = %d, want 0", got)
	}
}

func TestSlotStalePeriodsNeverPublished(t *testing.T) {
	tab := NewTable(4)
	s := tab.Register("silent", RoleLatency)
	for i := 0; i < 3; i++ {
		tab.BumpPeriod()
	}
	if got := s.StalePeriods(); got != 3 {
		t.Fatalf("never-published slot StalePeriods = %d, want 3 (table age)", got)
	}
	if tab.Period() != 3 {
		t.Fatalf("Period = %d, want 3", tab.Period())
	}
}

// TestStalenessConcurrentWithBroadcast runs the table's three parties at
// once under the race detector: the driver bumping the period and a monitor
// publishing (slot lock → atomic period read), the pipeline's directive
// broadcast (slot by slot, each under its own lock) with a late Register on
// the table lock, and an engine watchdog reading staleness. The period
// counter is atomic so that none of them nests one lock inside another.
func TestStalenessConcurrentWithBroadcast(t *testing.T) {
	tab := NewTable(4)
	lat := tab.Register("lat", RoleLatency)
	batch := tab.Register("batch", RoleBatch)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(3)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tab.BumpPeriod()
				lat.Publish(1)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, d := range []Directive{DirectivePause, DirectiveRun} {
					for _, s := range tab.Slots() {
						if s.Role() == RoleBatch {
							s.SetDirective(d)
						}
					}
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = lat.StalePeriods()
				_ = lat.Published()
				_ = batch.Directive()
			}
		}
	}()
	for i := 0; i < 10_000; i++ {
		_ = tab.Period()
	}
	tab.Register("late", RoleBatch) // a job submitted mid-run
	close(stop)
	wg.Wait()
	if lat.Directive() != DirectiveRun {
		t.Error("the broadcast reached a latency slot")
	}
}
