package comm

import (
	"sync"
	"testing"
)

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
	if tab.period.Load() != 3 {
		t.Fatalf("period = %d, want 3", tab.period.Load())
	}
}

// TestStalenessConcurrentWithReaders runs the table's three parties at
// once under the race detector: the driver bumping the period and a monitor
// publishing (slot lock → atomic period read), an engine reading its
// neighbours' windows slot by slot, each under its own lock, with a late
// Register on the table lock, and an engine watchdog reading staleness. The
// period counter is atomic so that none of them nests one lock inside
// another.
func TestStalenessConcurrentWithReaders(t *testing.T) {
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
				for _, s := range []*Slot{lat, batch} {
					_ = s.WindowMean()
					_ = s.LastSample()
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
				_ = batch.StalePeriods()
			}
		}
	}()
	for i := 0; i < 10_000; i++ {
		_ = tab.period.Load()
	}
	if late := tab.Register("late", RoleBatch); late.ID() != 2 { // a job submitted mid-run
		t.Errorf("late slot ID = %d, want 2", late.ID())
	}
	close(stop)
	wg.Wait()
}
