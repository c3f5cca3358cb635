package caer

import (
	"testing"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/spec"
)

// newTestPipeline builds a 2-domain, 8-core machine under a two-group
// pipeline with one latency-sensitive application (by profile name) on the
// first core of each listed group.
func newTestPipeline(t *testing.T, cfg Config, latency ...string) (*Pipeline, *machine.Machine) {
	t.Helper()
	m := machine.New(machine.Config{Cores: 8, Domains: 2})
	p := NewPipeline(m, HeuristicRule, cfg, 2)
	for g, name := range latency {
		if name == "" {
			continue
		}
		prof, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("%s profile missing", name)
		}
		core := 4 * g
		m.Bind(core, prof.Batch().NewProcess(uint64(g)<<27, int64(11+g)))
		p.AddMonitor(name, core, g)
	}
	return p, m
}

// recordThrottles wraps p's actuator so that a test can read, per core,
// whether the last directive applied to it was a pause: the throttle state
// the pipeline set, which the machine keeps to itself.
func recordThrottles(p *Pipeline) map[*machine.Core]bool {
	paused := make(map[*machine.Core]bool)
	next := p.actuator
	p.actuator = func(core *machine.Core, d comm.Directive) {
		next(core, d)
		paused[core] = d == comm.DirectivePause
	}
	return paused
}

// attachBatch binds a fresh batch process to core and attaches it in group
// core/4.
func attachBatch(p *Pipeline, m *machine.Machine, prof spec.Profile, core int) *Batch {
	m.Bind(core, prof.Batch().NewProcess(uint64(1<<28)+uint64(core)<<24, int64(100+core)))
	return p.Attach(p.Table().Register(prof.Name, comm.RoleBatch), core, core/4)
}

func slotIDs(p *Pipeline) []int {
	ids := make([]int, len(p.batches))
	for i, b := range p.batches {
		ids[i] = b.slot.ID()
	}
	return ids
}

// TestPipelineTickOrderIsSlotOrder pins the attach/detach contract: the
// engine tick order is comm-slot-id order whatever order applications
// attach in, and a re-attach (migration) keeps its place.
func TestPipelineTickOrderIsSlotOrder(t *testing.T) {
	p, m := newTestPipeline(t, DefaultConfig(), "mcf", "namd")
	paused := recordThrottles(p)
	tab := p.Table()
	a := tab.Register("a", comm.RoleBatch)
	b := tab.Register("b", comm.RoleBatch)
	c := tab.Register("c", comm.RoleBatch)
	bc := p.Attach(c, 3, 0)
	ba := p.Attach(a, 1, 0)
	p.Attach(b, 2, 0)
	want := []int{a.ID(), b.ID(), c.ID()}
	check := func(when string) {
		t.Helper()
		got := slotIDs(p)
		for i := range want {
			if len(got) != len(want) || got[i] != want[i] {
				t.Fatalf("%s: tick order %v, want %v", when, got, want)
			}
		}
	}
	check("after out-of-order attach")
	p.Tick()
	p.Detach(ba)
	ba = p.Attach(a, 5, 1) // migrate the oldest job to the other group
	check("after re-attach")
	if ba.group != 1 || ba.engine == nil {
		t.Errorf("re-attached batch: group %d engine %v", ba.group, ba.engine)
	}
	p.Detach(bc)
	want = want[:2]
	check("after detach")
	if paused[m.Core(3)] {
		t.Error("detach left the core paused")
	}
	defer func() {
		if recover() == nil {
			t.Error("double detach did not panic")
		}
	}()
	p.Detach(bc)
}

// TestPipelineGroupsReactSeparately: directives combine per LLC group — the
// contended group pauses its batch set while the quiet group keeps running,
// and GroupDirective exposes the combine to the scheduler's planner.
func TestPipelineGroupsReactSeparately(t *testing.T) {
	p, m := newTestPipeline(t, DefaultConfig(), "mcf", "namd")
	paused := recordThrottles(p)
	attachBatch(p, m, spec.LBM(), 1)
	attachBatch(p, m, spec.LBM(), 2)
	quiet := attachBatch(p, m, spec.LBM(), 5)
	apart := 0
	for i := 0; i < 400; i++ {
		if p.Tick() != 1 {
			t.Fatal("polling tick did not probe a one-period span")
		}
		for g, cores := range [][]int{{1, 2}, {5}} {
			pause := p.GroupDirective(g) == comm.DirectivePause
			for _, c := range cores {
				if paused[m.Core(c)] != pause {
					t.Fatalf("period %d: group %d combined to pause=%v but core %d paused=%v", i, g, pause, c, !pause)
				}
			}
		}
		if p.GroupDirective(0) == comm.DirectivePause && p.GroupDirective(1) == comm.DirectiveRun {
			apart++
		}
	}
	if apart == 0 {
		t.Error("mcf's group never paused while namd's group ran")
	}
	if st := quiet.Engine().Stats(); st.Periods != 400 || st.PausedPeriods > 100 {
		t.Errorf("quiet group's engine: %+v", st)
	}
}

// TestPipelineUnmanagedGroup: a batch application in a group with no
// latency-sensitive neighbour gets no engine but is still probed.
func TestPipelineUnmanagedGroup(t *testing.T) {
	p, m := newTestPipeline(t, DefaultConfig(), "mcf")
	paused := recordThrottles(p)
	b := attachBatch(p, m, spec.LBM(), 6)
	if b.Engine() != nil {
		t.Fatal("engine built in a group with nothing to protect")
	}
	for i := 0; i < 20; i++ {
		p.Tick()
	}
	misses, span := b.Sample()
	if misses == 0 || span != 1 {
		t.Errorf("unmanaged batch sample = (%d misses, span %d)", misses, span)
	}
	if paused[m.Core(6)] || p.GroupDirective(1) != comm.DirectiveRun {
		t.Error("unmanaged group was throttled")
	}
}

// TestPipelineAttachWakesSleep: an attach while the interrupt schedule
// sleeps ends the sleep, and the newcomer is probed the next period.
func TestPipelineAttachWakesSleep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sampling = SamplingInterrupt
	p, m := newTestPipeline(t, cfg, "namd")
	for i := 0; i < 100 && !p.sleeping; i++ {
		p.Tick()
	}
	if !p.sleeping {
		t.Fatal("idle pipeline never went to sleep")
	}
	if p.Tick() != 0 {
		t.Fatal("first period of the sleep was probed")
	}
	b := attachBatch(p, m, spec.LBM(), 1)
	if p.sleeping {
		t.Error("still asleep after an attach")
	}
	if span := p.Tick(); span == 0 {
		t.Fatal("period after the attach was not probed")
	}
	if _, span := b.Sample(); span != 1 {
		t.Errorf("newcomer's sample spans %d periods, want 1", span)
	}
	if b.Engine().Stats().Periods != 1 {
		t.Error("newcomer's engine did not tick")
	}
}

// TestPipelineLateMonitorPanics: monitors are fixed once a batch
// application has attached, so every engine sees its whole group.
func TestPipelineLateMonitorPanics(t *testing.T) {
	p, m := newTestPipeline(t, DefaultConfig(), "mcf")
	attachBatch(p, m, spec.LBM(), 1)
	defer func() {
		if recover() == nil {
			t.Error("AddMonitor after an attach did not panic")
		}
	}()
	p.AddMonitor("late", 2, 0)
}

// TestMonitorDownKeepsProbing: a crashed monitor publishes nothing, but its
// probe keeps reading the counter, so consumers of Misses (the scheduler's
// classifier feed) see per-probe deltas through the outage and the first
// sample after the restart covers one probe.
func TestMonitorDownKeepsProbing(t *testing.T) {
	p, m := newTestPipeline(t, DefaultConfig(), "mcf")
	attachBatch(p, m, spec.LBM(), 1)
	mon := p.Monitors()[0]
	for i := 0; i < 20; i++ {
		p.Tick()
	}
	if s := mon.Slot().StalePeriods(); s != 0 {
		t.Fatalf("live monitor's slot %d periods stale", s)
	}
	mon.SetDown(true)
	var outage uint64
	for i := 0; i < 10; i++ {
		p.Tick()
		outage += mon.Misses()
	}
	if s := mon.Slot().StalePeriods(); s != 10 {
		t.Errorf("slot %d periods stale after a 10-period outage: the down monitor published", s)
	}
	if outage == 0 {
		t.Error("down monitor stopped reading its counter")
	}
	mon.SetDown(false)
	p.Tick()
	if mon.Slot().StalePeriods() != 0 {
		t.Error("restarted monitor did not publish")
	}
	if got := mon.Slot().LastSample(); got != float64(mon.Misses()) || got > float64(outage) {
		t.Errorf("first sample after the outage = %v (probe read %d, outage total %d): spans the gap", got, mon.Misses(), outage)
	}
}

// TestRuntimeStepAllocFree pins the whole per-period path at zero
// allocations under every sampling mode.
func TestRuntimeStepAllocFree(t *testing.T) {
	for _, mode := range []SamplingMode{SamplingPolling, SamplingAdaptive, SamplingInterrupt} {
		cfg := DefaultConfig()
		cfg.Sampling = mode
		m := machine.New(machine.Config{Cores: 2})
		rt := NewRuntime(m, HeuristicRule, cfg)
		lat, _ := spec.ByName("mcf")
		rt.AddLatency("mcf", 0, lat.Batch().NewProcess(0, 11))
		rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, 12))
		for i := 0; i < 50; i++ {
			rt.Step()
		}
		if n := testing.AllocsPerRun(100, rt.Step); n != 0 {
			t.Errorf("%v: Runtime.Step allocates %v/op", mode, n)
		}
	}
}
