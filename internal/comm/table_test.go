package comm

import (
	"sync"
	"testing"
)

func TestRoleAndDirectiveStrings(t *testing.T) {
	if RoleLatency.String() != "latency-sensitive" || RoleBatch.String() != "batch" {
		t.Error("role strings wrong")
	}
	if Role(9).String() != "Role(9)" {
		t.Error("unknown role string wrong")
	}
	if DirectiveRun.String() != "run" || DirectivePause.String() != "pause" {
		t.Error("directive strings wrong")
	}
	if Directive(7).String() != "Directive(7)" {
		t.Error("unknown directive string wrong")
	}
}

func TestNewTableValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTable(0) did not panic")
		}
	}()
	NewTable(0)
}

func TestRegisterAssignsIDsAndRoles(t *testing.T) {
	tab := NewTable(8)
	a := tab.Register("search", RoleLatency)
	b := tab.Register("lbm", RoleBatch)
	if a.ID() != 0 || b.ID() != 1 {
		t.Errorf("IDs = %d,%d, want 0,1", a.ID(), b.ID())
	}
	if a.Name() != "search" || a.Role() != RoleLatency {
		t.Error("slot a metadata wrong")
	}
	if b.Role() != RoleBatch {
		t.Error("slot b role wrong")
	}
	// Each slot's window holds the table's 8 samples.
	for i := 0; i < 9; i++ {
		a.Publish(float64(i))
	}
	if a.window.Len() != 8 {
		t.Errorf("window holds %d samples after 9 publishes, want 8", a.window.Len())
	}
}

func TestSlotPublishAndWindow(t *testing.T) {
	tab := NewTable(3)
	s := tab.Register("x", RoleLatency)
	if s.LastSample() != 0 || s.window.Len() != 0 {
		t.Error("fresh slot not empty")
	}
	for _, v := range []float64{100, 200, 300, 400} {
		s.Publish(v)
	}
	if got := s.WindowMean(); got != 300 {
		t.Errorf("WindowMean = %v, want 300", got)
	}
	if got := s.LastSample(); got != 400 {
		t.Errorf("LastSample = %v, want 400", got)
	}
	want := []float64{200, 300, 400}
	if s.window.Len() != len(want) {
		t.Fatalf("window holds %d samples, want %d", s.window.Len(), len(want))
	}
	for i := range want {
		if got := s.window.At(i); got != want[i] {
			t.Errorf("sample %d = %v, want %v", i, got, want[i])
		}
	}
}

// TestDirectives: the zero Directive is DirectiveRun, so a directive no
// engine has voted on yet (a fresh pipeline group) lets the batch run.
func TestDirectives(t *testing.T) {
	var d Directive
	if d != DirectiveRun || DirectivePause == DirectiveRun {
		t.Errorf("zero directive = %v, want run distinct from pause", d)
	}
}

func TestTableConcurrentPublish(t *testing.T) {
	tab := NewTable(64)
	s1 := tab.Register("a", RoleLatency)
	s2 := tab.Register("b", RoleBatch)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(slot *Slot) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				slot.Publish(float64(i))
				_ = slot.WindowMean()
				_ = slot.StalePeriods()
			}
		}([]*Slot{s1, s2}[g%2])
	}
	wg.Wait()
	// Every publish landed: each window holds the last 64 of its 2000.
	if s1.window.Len() != 64 || s2.window.Len() != 64 {
		t.Errorf("window lengths = %d,%d, want 64,64", s1.window.Len(), s2.window.Len())
	}
}
