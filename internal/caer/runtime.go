package caer

import (
	"fmt"
	"strconv"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/telemetry"
)

// HeuristicKind selects which detection/response pairing a runtime uses:
// the three configurations evaluated in the paper plus the hybrid
// extension.
type HeuristicKind int

const (
	// HeuristicShutter pairs the burst-shutter detector with the
	// red-light/green-light response (paper §6.2).
	HeuristicShutter HeuristicKind = iota
	// HeuristicRule pairs the rule-based detector with the soft-locking
	// response (paper §6.2).
	HeuristicRule
	// HeuristicRandom is the §6.4 accuracy baseline: random detection with
	// a length-1 red-light/green-light response.
	HeuristicRandom
	// HeuristicHybrid is an extension beyond the paper: rule-based gating
	// with burst-shutter confirmation, paired with red-light/green-light.
	HeuristicHybrid
)

// String names the heuristic pairing.
func (h HeuristicKind) String() string {
	switch h {
	case HeuristicShutter:
		return "shutter"
	case HeuristicRule:
		return "rule-based"
	case HeuristicRandom:
		return "random"
	case HeuristicHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("HeuristicKind(%d)", int(h))
	}
}

// NewDetector builds the detector half of the pairing.
func (h HeuristicKind) NewDetector(cfg Config) Detector {
	switch h {
	case HeuristicShutter:
		return NewShutterDetector(cfg)
	case HeuristicRule:
		return NewRuleDetector(cfg)
	case HeuristicRandom:
		return NewRandomDetector(cfg)
	case HeuristicHybrid:
		return NewHybridDetector(cfg)
	default:
		panic(fmt.Sprintf("caer: unknown heuristic %d", int(h)))
	}
}

// NewResponder builds the response half of the pairing.
func (h HeuristicKind) NewResponder(cfg Config) Responder {
	switch h {
	case HeuristicShutter, HeuristicHybrid:
		return NewRedLightGreenLight(cfg)
	case HeuristicRule:
		return NewSoftLock(cfg)
	case HeuristicRandom:
		// The paper's baseline uses red-light/green-light with length 1.
		cfg.ResponseLength = 1
		cfg.AdaptiveResponse = false
		return NewRedLightGreenLight(cfg)
	default:
		panic(fmt.Sprintf("caer: unknown heuristic %d", int(h)))
	}
}

// app is one hosted application.
type app struct {
	name   string
	core   int
	slot   *comm.Slot
	gauges coreGauges
}

// coreGauges is one core's live telemetry view for caer-top, registered
// once in start() so the per-period updates in Step stay allocation-free.
type coreGauges struct {
	pressure  *telemetry.Gauge // windowed LLC-miss mean
	directive *telemetry.Gauge // 0 = run, 1 = pause (batch only)
	degraded  *telemetry.Gauge // 1 while failing open (batch only)
}

// Runtime is the deployed CAER environment of the paper over a simulated
// machine: the Pipeline's one-LLC-group case with a fixed application set.
// Every latency-sensitive application gets a CAER-M monitor and every batch
// application an engine that sees all of them. Step runs one sampling
// period.
type Runtime struct {
	Pipeline

	latency []app
	batch   []app
	engines []*Engine // one per batch application, in registration order
}

// NewRuntime creates a CAER deployment on machine m. Applications are added
// with AddLatency/AddBatch before the first Step.
func NewRuntime(m *machine.Machine, kind HeuristicKind, cfg Config, opts ...Option) *Runtime {
	rt := new(Runtime)
	rt.init(m, kind, cfg, 1, opts)
	return rt
}

// Engines returns the batch engines (one per batch application).
func (rt *Runtime) Engines() []*Engine { return rt.engines }

// AddLatency binds a latency-sensitive application to a core under a
// CAER-M monitor. The application itself is never modified.
func (rt *Runtime) AddLatency(name string, core int, proc *machine.Process) {
	rt.mustNotBeStarted()
	rt.m.Bind(core, proc)
	mon := rt.AddMonitor(name, core, 0)
	rt.latency = append(rt.latency, app{name: name, core: core, slot: mon.slot})
}

// AddBatch binds a batch application to a core under a full CAER engine.
// Engines are created lazily at the first Step so that every engine sees
// all latency-sensitive slots regardless of registration order.
func (rt *Runtime) AddBatch(name string, core int, proc *machine.Process) {
	rt.mustNotBeStarted()
	rt.m.Bind(core, proc)
	slot := rt.table.Register(name, comm.RoleBatch)
	rt.batch = append(rt.batch, app{name: name, core: core, slot: slot})
}

func (rt *Runtime) mustNotBeStarted() {
	if rt.started {
		panic("caer: applications must be added before the first Step")
	}
}

// start attaches the batch applications to the pipeline and registers the
// live gauges, on the first Step.
//
//caer:cold one-time lazy deployment build on the first Step; every period after it is a started-flag check
func (rt *Runtime) start() {
	if len(rt.latency) == 0 || len(rt.batch) == 0 {
		panic("caer: runtime needs at least one latency-sensitive and one batch application")
	}
	rt.engines = make([]*Engine, len(rt.batch))
	for i := range rt.batch {
		b := &rt.batch[i]
		rt.engines[i] = rt.Attach(b.slot, b.core, 0).engine
		b.gauges = registerCoreGauges(b, comm.RoleBatch)
	}
	for i := range rt.latency {
		rt.latency[i].gauges = registerCoreGauges(&rt.latency[i], comm.RoleLatency)
	}
}

// registerCoreGauges pre-registers one application's live per-core series.
// Setup path: registration allocates so Step does not have to.
func registerCoreGauges(a *app, role comm.Role) coreGauges {
	reg := telemetry.Default()
	kv := []string{"core", strconv.Itoa(a.core), "app", a.name, "role", role.String()}
	g := coreGauges{
		pressure: reg.Gauge("caer_core_pressure", "windowed LLC-miss mean per core", kv...),
	}
	if role == comm.RoleBatch {
		g.directive = reg.Gauge("caer_core_directive", "current directive per batch core (0 run, 1 pause)", kv...)
		g.degraded = reg.Gauge("caer_core_degraded", "1 while the core's engine is failing open", kv...)
	}
	return g
}

// Step executes one sampling period: one pipeline Tick and a refresh of
// the live gauges after a probe. A batch application that runs out of
// instructions idles its core from then on; the paper's adversary is an
// endless service (spec.Profile.Batch), so the runtime never restarts one.
//
//caer:hot
func (rt *Runtime) Step() {
	if !rt.started {
		rt.start()
	}
	if rt.Tick() > 0 {
		rt.setGauges()
	}
}

// setGauges publishes the probe's outcome on the per-core gauges.
func (rt *Runtime) setGauges() {
	for i := range rt.latency {
		a := &rt.latency[i]
		a.gauges.pressure.Set(a.slot.WindowMean())
	}
	for i, eng := range rt.engines {
		g := rt.batch[i].gauges
		g.pressure.Set(eng.OwnMean())
		g.directive.Set(boolGauge(eng.Directive() == comm.DirectivePause))
		g.degraded.Set(boolGauge(eng.Degraded()))
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RunUntil steps until stop returns true or maxPeriods elapse, returning
// the number of periods executed.
func (rt *Runtime) RunUntil(stop func() bool, maxPeriods int) int {
	for i := 0; i < maxPeriods; i++ {
		if stop() {
			return i
		}
		rt.Step()
	}
	return maxPeriods
}
