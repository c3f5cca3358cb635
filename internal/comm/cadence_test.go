package comm

import "testing"

// TestStalePeriodsCadenceOne pins the back-compat contract: under the
// default cadence of 1 the due-period stamp is bit-identical to the old
// "last publish period + 1" stamp, so staleness still means "periods since
// the last publish".
func TestStalePeriodsCadenceOne(t *testing.T) {
	tb := NewTable(4)
	s := tb.Register("lat", RoleLatency)
	tb.BumpPeriod()
	s.Publish(1)
	if got := s.StalePeriods(); got != 0 {
		t.Fatalf("stale = %d right after publish, want 0", got)
	}
	for i := 1; i <= 5; i++ {
		tb.BumpPeriod()
		if got := s.StalePeriods(); got != uint64(i) {
			t.Fatalf("stale = %d after %d silent periods, want %d", got, i, i)
		}
	}
}

// TestStalePeriodsDeclaredCadence is the satellite-3 contract: a publisher
// that declares a wider cadence is not stale until the table clock passes
// the declared due period — an intentionally skipped probe must not read
// as a dead publisher — and once overdue, staleness counts from the missed
// due period.
func TestStalePeriodsDeclaredCadence(t *testing.T) {
	tb := NewTable(4)
	s := tb.Register("lat", RoleLatency)
	tb.BumpPeriod()
	s.PublishWithCadence(1, 4) // next publish due at period 5
	for p := tb.period.Load(); p < 5; p = tb.period.Load() {
		if got := s.StalePeriods(); got != 0 {
			t.Fatalf("stale = %d at period %d, before the declared due period", got, p)
		}
		tb.BumpPeriod()
	}
	// Period 5: the due period itself elapsed without a publish.
	if got := s.StalePeriods(); got != 1 {
		t.Fatalf("stale = %d at the missed due period, want 1", got)
	}
	tb.BumpPeriod()
	if got := s.StalePeriods(); got != 2 {
		t.Fatalf("stale = %d one period past the missed due period, want 2", got)
	}
	// Publishing on time under the same cadence keeps staleness at 0.
	s.PublishWithCadence(2, 4)
	if got := s.StalePeriods(); got != 0 {
		t.Fatalf("stale = %d after a fresh publish, want 0", got)
	}
}

// TestDeclareCadenceRestamps covers the controller's post-publish path:
// the probe publishes at cadence 1, then the controller decides to widen
// and re-stamps the slot without publishing.
func TestDeclareCadenceRestamps(t *testing.T) {
	tb := NewTable(4)
	s := tb.Register("lat", RoleLatency)
	tb.BumpPeriod()
	s.Publish(1) // due next period
	s.DeclareCadence(8)
	for i := 0; i < 7; i++ {
		tb.BumpPeriod()
		if got := s.StalePeriods(); got != 0 {
			t.Fatalf("stale = %d %d periods into a declared cadence of 8, want 0", got, i+1)
		}
	}
	tb.BumpPeriod()
	if got := s.StalePeriods(); got != 1 {
		t.Fatalf("stale = %d once the declared cadence lapsed, want 1", got)
	}
}

// TestDeclareCadenceNeverPublished: declaring a cadence on a slot that
// never published must not forge liveness — staleness stays the table age.
func TestDeclareCadenceNeverPublished(t *testing.T) {
	tb := NewTable(4)
	s := tb.Register("lat", RoleLatency)
	s.DeclareCadence(16)
	for i := 1; i <= 3; i++ {
		tb.BumpPeriod()
		if got := s.StalePeriods(); got != uint64(i) {
			t.Fatalf("stale = %d on a never-published slot at period %d, want %d", got, i, i)
		}
	}
}

// TestPublishZeroCadenceTreatedAsOne guards the degenerate input.
func TestPublishZeroCadenceTreatedAsOne(t *testing.T) {
	tb := NewTable(4)
	s := tb.Register("lat", RoleLatency)
	tb.BumpPeriod()
	s.PublishWithCadence(1, 0)
	tb.BumpPeriod()
	if got := s.StalePeriods(); got != 1 {
		t.Fatalf("stale = %d one period after a zero-cadence publish, want 1", got)
	}
	s.Publish(2)
	s.DeclareCadence(0)
	tb.BumpPeriod()
	if got := s.StalePeriods(); got != 1 {
		t.Fatalf("stale = %d one period after a zero DeclareCadence, want 1", got)
	}
}
