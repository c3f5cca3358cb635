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
	if got := len(tab.Slots()); got != 2 {
		t.Errorf("Slots() = %d entries, want 2", got)
	}
	if got := tab.Slots(); got[0] != a || got[1] != b {
		t.Error("Slots() not in registration order")
	}
	if tab.WindowSize() != 8 {
		t.Errorf("WindowSize = %d, want 8", tab.WindowSize())
	}
}

func TestSlotPublishAndWindow(t *testing.T) {
	tab := NewTable(3)
	s := tab.Register("x", RoleLatency)
	if s.LastSample() != 0 || len(s.Samples()) != 0 {
		t.Error("fresh slot not empty")
	}
	for _, v := range []float64{100, 200, 300, 400} {
		s.Publish(v)
	}
	if s.Published() != 4 {
		t.Errorf("Published = %d, want 4", s.Published())
	}
	if got := s.WindowMean(); got != 300 {
		t.Errorf("WindowMean = %v, want 300", got)
	}
	if got := s.LastSample(); got != 400 {
		t.Errorf("LastSample = %v, want 400", got)
	}
	samples := s.Samples()
	want := []float64{200, 300, 400}
	if len(samples) != len(want) {
		t.Fatalf("Samples() holds %d samples, want %d", len(samples), len(want))
	}
	for i := range want {
		if samples[i] != want[i] {
			t.Errorf("Samples[%d] = %v, want %v", i, samples[i], want[i])
		}
	}
}

func TestDirectives(t *testing.T) {
	tab := NewTable(4)
	s := tab.Register("b", RoleBatch)
	if s.Directive() != DirectiveRun {
		t.Error("default directive != run")
	}
	s.SetDirective(DirectivePause)
	if s.Directive() != DirectivePause {
		t.Error("SetDirective did not stick")
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
				_ = slot.Directive()
			}
		}([]*Slot{s1, s2}[g%2])
	}
	wg.Wait()
	if s1.Published() != 2000 || s2.Published() != 2000 {
		t.Errorf("published = %d,%d, want 2000,2000", s1.Published(), s2.Published())
	}
}
