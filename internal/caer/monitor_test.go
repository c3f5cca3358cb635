package caer

import (
	"testing"

	"caer/internal/comm"
	"caer/internal/pmu"
)

// countSource is a minimal pmu.Source for monitor tests.
type countSource struct {
	misses uint64
}

func (c *countSource) ReadCounter(core int, ev pmu.Event) uint64 {
	if ev == pmu.EventLLCMisses {
		return c.misses
	}
	return 0
}

func TestMonitorPublishesPerPeriodDeltas(t *testing.T) {
	src := &countSource{}
	tab := comm.NewTable(4)
	slot := tab.Register("search", comm.RoleLatency)
	mon := NewMonitor(pmu.New(src, 0), slot)
	if mon.Slot() != slot {
		t.Error("Slot() accessor wrong")
	}

	src.misses = 120
	mon.TickSpan(1)
	src.misses = 150
	mon.TickSpan(1)
	if got, last := slot.WindowMean(), slot.LastSample(); got != 75 || last != 30 {
		t.Errorf("published window mean %v last %v, want 75 and 30 (samples 120, 30)", got, last)
	}
}

func TestNewMonitorValidation(t *testing.T) {
	src := &countSource{}
	tab := comm.NewTable(4)
	latSlot := tab.Register("lat", comm.RoleLatency)
	batchSlot := tab.Register("batch", comm.RoleBatch)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil pmu", func() { NewMonitor(nil, latSlot) })
	mustPanic("nil slot", func() { NewMonitor(pmu.New(src, 0), nil) })
	mustPanic("batch slot", func() { NewMonitor(pmu.New(src, 0), batchSlot) })
}
