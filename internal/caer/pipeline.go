package caer

import (
	"fmt"
	"slices"

	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/telemetry"
)

// Actuator applies a directive to a batch application's core. The default
// actuator pauses/resumes execution; a DVFS actuator instead drops the
// core's frequency (the related-work alternative response, paper §7).
type Actuator func(core *machine.Core, d comm.Directive)

// PauseActuator implements the paper's throttling: DirectivePause halts
// the core entirely.
func PauseActuator(core *machine.Core, d comm.Directive) {
	core.SetPaused(d == comm.DirectivePause)
}

// DVFSActuator returns an actuator that models per-core dynamic frequency
// scaling: DirectivePause runs the core at 1/divisor speed instead of
// halting it.
func DVFSActuator(divisor int) Actuator {
	if divisor < 2 {
		panic(fmt.Sprintf("caer: DVFS divisor %d must be >= 2", divisor))
	}
	return func(core *machine.Core, d comm.Directive) {
		if d == comm.DirectivePause {
			core.SetFreqDivisor(divisor)
		} else {
			core.SetFreqDivisor(1)
		}
	}
}

// Option customizes a Pipeline (and so a Runtime, which embeds one).
type Option func(*Pipeline)

// WithActuator replaces the default pause actuator.
func WithActuator(a Actuator) Option {
	return func(p *Pipeline) { p.actuator = a }
}

// WithSource interposes a pmu.Source between the machine's counters and
// the pipeline's PMUs. The machine still executes the workloads; only the
// counter reads go through src. Chaos experiments use this to inject
// counter faults without touching the detection logic.
func WithSource(src pmu.Source) Option {
	if src == nil {
		panic("caer: WithSource needs a source")
	}
	return func(p *Pipeline) { p.src = src }
}

// group is the applications sharing one last-level cache: the scope batch
// applications react together in (§3.2).
type group struct {
	neighbors []*comm.Slot   // the group's latency slots, read by its engines
	directive comm.Directive // combined at the last probe, re-applied every period
}

// Batch is one batch application attached to a Pipeline: its PMU probe and
// the CAER engine that lies under it.
type Batch struct {
	slot   *comm.Slot
	core   int
	group  int
	pmu    *pmu.PMU
	engine *Engine
	since  uint64 // machine period of the last probe (or of the attach)
	misses uint64
	span   uint64
}

// Engine returns the application's engine, or nil in a group with no
// latency-sensitive application: nothing to protect there, so it runs
// unmanaged (and is still probed).
func (b *Batch) Engine() *Engine { return b.engine }

// PMU returns the probe's counter view, for events the pipeline does not read.
func (b *Batch) PMU() *pmu.PMU { return b.pmu }

// Sample returns the LLC misses the last probe read and the periods they span.
func (b *Batch) Sample() (misses, span uint64) { return b.misses, b.span }

// Pipeline is the paper's one loop per sampling period (§3.2, Figure 5;
// DESIGN.md §17) over a set of LLC groups on one machine. Its stages: the
// probe schedule decides whether this period probes at all; on a probe
// every CAER-M monitor publishes, every engine ticks, and the directives
// combine per group (any engine asserting pause pauses its group); every
// period each group's directive is re-applied through the Actuator.
//
// Monitors are fixed before the first batch application attaches; batch
// applications attach and detach at any period. All monitors tick first,
// then all engines in comm-slot-id order, whatever order they attached in.
type Pipeline struct {
	m        *machine.Machine
	cfg      Config
	kind     HeuristicKind
	table    *comm.Table
	src      pmu.Source // what every PMU probes: the machine, or WithSource
	actuator Actuator
	// Span lanes (SetLanes); nil keeps the monitors' and engines' defaults.
	spans       *telemetry.SpanRecorder
	trackOffset int32
	trackPrefix string

	groups   []group
	monitors []*Monitor
	batches  []*Batch // attached, in comm-slot-id order
	started  bool

	// Probe-schedule state (DESIGN.md §13). probeWait counts down the
	// periods until the next scheduled probe; since is the machine period
	// of the last probe, so a probe's counter deltas span now-since periods.
	ctl         *IntervalController // adaptive mode only
	triggers    []*pmu.Threshold    // interrupt mode: one per latency core
	probeWait   int
	since       uint64
	sleeping    bool   // interrupt mode: pipeline parked behind the triggers
	armedStart  uint64 // machine period the current sleep stretch began
	quietStreak int    // interrupt mode: consecutive quiet probes while awake
	sstats      SamplingStats
}

// NewPipeline creates the loop over groups LLC groups of machine m.
func NewPipeline(m *machine.Machine, kind HeuristicKind, cfg Config, groups int, opts ...Option) *Pipeline {
	p := new(Pipeline)
	p.init(m, kind, cfg, groups, opts)
	return p
}

func (p *Pipeline) init(m *machine.Machine, kind HeuristicKind, cfg Config, groups int, opts []Option) {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	*p = Pipeline{
		m:        m,
		cfg:      cfg,
		kind:     kind,
		table:    comm.NewTable(cfg.WindowSize),
		src:      m,
		actuator: PauseActuator,
		groups:   make([]group, groups),
	}
	for _, o := range opts {
		o(p)
	}
}

// SetLanes re-homes the spans of every monitor and engine built from now
// on onto recorder spans, at track slot-id+offset under a prefixed lane
// name. The fleet layer gives machine k's pipeline the k*stride track block
// of a shared ring this way; raw slot ids collide across machines there.
func (p *Pipeline) SetLanes(spans *telemetry.SpanRecorder, offset int32, prefix string) {
	p.spans, p.trackOffset, p.trackPrefix = spans, offset, prefix
}

// Table exposes the communication table (for inspection and tests).
func (p *Pipeline) Table() *comm.Table { return p.table }

// Monitors returns the CAER-M monitors in registration order. Chaos
// experiments use them to simulate monitor crashes.
func (p *Pipeline) Monitors() []*Monitor { return p.monitors }

// SamplingStats returns the probe schedule's counters.
func (p *Pipeline) SamplingStats() SamplingStats { return p.sstats }

// GroupDirective returns what group g's engines combined to at the last probe.
func (p *Pipeline) GroupDirective(g int) comm.Directive { return p.groups[g].directive }

// AddMonitor puts the latency-sensitive application on core, in group g,
// under a CAER-M monitor. All monitors must be added before the first batch
// application attaches, so that every engine sees its whole group.
func (p *Pipeline) AddMonitor(name string, core, g int) *Monitor {
	if p.started || len(p.batches) > 0 {
		panic("caer: monitors must be added before the first attach and the first period")
	}
	slot := p.table.Register(name, comm.RoleLatency)
	mon := NewMonitor(pmu.New(p.src, core), slot)
	if p.spans != nil {
		mon.spans, mon.track = p.spans, p.Track(slot)
		p.spans.NameTrack(mon.track, p.trackPrefix+mon.laneName)
	}
	p.monitors = append(p.monitors, mon)
	p.groups[g].neighbors = append(p.groups[g].neighbors, slot)
	return mon
}

// Attach puts the batch application publishing to slot, running on core in
// group g, under a probe and a fresh engine. Its place in the tick order is
// the slot's id, so a re-attach after a migration keeps it. An attach while
// the schedule is widened or asleep snaps it back: the newcomer is probed
// the next period.
func (p *Pipeline) Attach(slot *comm.Slot, core, g int) *Batch {
	b := &Batch{slot: slot, core: core, group: g, since: p.m.Periods()}
	if ns := p.groups[g].neighbors; len(ns) > 0 {
		b.engine = NewEngine(p.kind.NewDetector(p.cfg), p.kind.NewResponder(p.cfg), slot, ns)
		b.engine.SetWatchdog(p.cfg.WatchdogPeriods)
		if p.spans != nil {
			b.engine.spans, b.engine.track = p.spans, p.Track(slot)
			p.spans.NameTrack(b.engine.track, p.trackPrefix+b.engine.laneName)
		}
	}
	b.pmu = pmu.New(p.src, core)
	if p.started {
		if p.sleeping {
			p.wake(0)
		}
		if p.ctl != nil {
			p.ctl.Reset()
		}
		p.probeWait = 1
	}
	i := len(p.batches)
	for i > 0 && p.batches[i-1].slot.ID() > slot.ID() {
		i--
	}
	p.batches = slices.Insert(p.batches, i, b)
	return b
}

// Detach removes b from the pipeline and lifts the response from its core.
// The engine's counters stay readable through b.
func (p *Pipeline) Detach(b *Batch) {
	i := slices.Index(p.batches, b)
	if i < 0 {
		panic("caer: detach of a batch application that is not attached")
	}
	p.batches = slices.Delete(p.batches, i, i+1)
	p.actuator(p.m.Core(b.core), comm.DirectiveRun)
}

// Track maps a comm slot to its span-recorder track id (see SetLanes).
func (p *Pipeline) Track(slot *comm.Slot) int32 { return int32(slot.ID()) + p.trackOffset }

// Arm readies the probe schedule for the first period: it must run before
// the machine steps, so the first probe's counter deltas span from here.
// Idempotent; Tick calls it, so only a caller that runs the period itself
// (the fleet, which steps every machine's period in one pool call) needs to.
func (p *Pipeline) Arm() {
	if !p.started {
		p.start()
	}
}

//caer:cold one-time lazy arming of the probe schedule before the first period; every period after it is a started-flag check
func (p *Pipeline) start() {
	p.since = p.m.Periods()
	p.sstats.Mode = p.cfg.Sampling
	p.sstats.WidestInterval = 1
	p.probeWait = 1
	switch p.cfg.Sampling {
	case SamplingPolling:
	case SamplingAdaptive:
		p.ctl = NewIntervalController(p.cfg.MaxProbeInterval, sampleGrowth, quietProbes)
	case SamplingInterrupt:
		for _, mon := range p.monitors {
			p.triggers = append(p.triggers, pmu.NewThreshold(p.src, mon.pmu.Core(), pmu.ThresholdConfig{
				Event:  pmu.EventLLCMisses,
				Bound:  noiseThresh * triggerWindow,
				Window: triggerWindow,
			}))
		}
	default:
		panic(fmt.Sprintf("caer: unknown sampling mode %d", int(p.cfg.Sampling)))
	}
	telemetry.EngineMode.Set(float64(p.cfg.Sampling))
	telemetry.SamplingInterval.Set(1)
	p.started = true
}

// Tick executes one sampling period where the paper splits it (§3–§4): arm,
// let the hardware run the period, then the control half at the period
// boundary. It returns what Control returns.
func (p *Pipeline) Tick() uint64 {
	p.Arm()
	p.m.RunPeriod()
	return p.Control()
}

// Control is the half of a sampling period that runs at its boundary, after
// the machine has stepped (Arm before the first): advance the table clock,
// probe if the schedule says so, and re-apply every group's directive. It
// returns the periods the probe's samples span, or 0 when the schedule
// skipped this period.
//
// Under polling every period probes. The adaptive mode probes every
// probeWait periods as decided by the interval controller; the interrupt
// mode, once the system has been quiet, checks only per-latency-core
// threshold triggers (plus a keepalive probe every MaxProbeInterval
// periods, which lets the watchdog see a dead monitor through the sleep).
func (p *Pipeline) Control() uint64 {
	telemetry.RunnerPeriods.Inc()
	// Advance the table's period clock before this period's publishes so
	// StalePeriods counts publisher lateness in whole periods.
	p.table.BumpPeriod()
	p.probeWait--
	probe := p.probeWait <= 0 // under polling, every period
	if p.sleeping {
		fired := 0
		for _, tr := range p.triggers {
			if tr.Check() {
				fired++
			}
		}
		if fired > 0 {
			p.wake(fired)
			probe = true
		}
	}
	var span uint64
	if probe {
		span = p.probe()
		p.afterProbe()
	} else {
		p.sstats.SkippedPeriods++
		telemetry.PMUProbesSkipped.Inc()
	}
	for _, b := range p.batches {
		p.actuator(p.m.Core(b.core), p.groups[b.group].directive)
	}
	return span
}

// probe runs the detection stages once: monitor publishes, engine ticks
// and the per-group combine (counted as one directive broadcast; Control
// applies each group's directive to its batch cores). Counter deltas are normalized
// by the periods they span (1 under polling) so every window stays in
// misses-per-period units. It returns the monitors' span.
func (p *Pipeline) probe() uint64 {
	now := p.m.Periods()
	span := now - p.since
	p.since = now
	p.sstats.ProbePeriods++
	if p.sleeping {
		p.sstats.Keepalives++
	}
	for _, mon := range p.monitors {
		mon.TickSpan(span)
	}
	for g := range p.groups {
		p.groups[g].directive = comm.DirectiveRun
	}
	for _, b := range p.batches {
		b.misses = b.pmu.ReadDelta(pmu.EventLLCMisses)
		b.span, b.since = now-b.since, now
		if b.engine == nil {
			continue
		}
		if b.engine.Tick(float64(b.misses)/float64(b.span)) == comm.DirectivePause {
			p.groups[b.group].directive = comm.DirectivePause
		}
	}
	telemetry.CommBroadcasts.Inc()
	return span
}

// afterProbe advances the probe schedule with the probe's outcome: it
// decides when the next probe lands and declares a widened cadence to the
// comm table, so deliberate skips do not read as publisher death. The
// adaptive mode asks the interval controller. The interrupt mode sleeps
// after quietProbes quiet probes in a row, stays asleep while its keepalive
// probes find the rest point intact, and wakes when one does not (pressure
// crept up without crossing the trigger bound, or a hidden failure
// surfaced).
func (p *Pipeline) afterProbe() {
	next := 1
	switch p.cfg.Sampling {
	case SamplingPolling:
		p.probeWait = 1
		return
	case SamplingAdaptive:
		next = p.ctl.Observe(p.quiet())
	case SamplingInterrupt:
		quiet := p.quiet()
		if p.sleeping && !quiet {
			p.wake(0)
		}
		if !p.sleeping {
			if quiet {
				p.quietStreak++
			} else {
				p.quietStreak = 0
			}
			if p.quietStreak >= quietProbes {
				p.sleep()
			}
		}
		if p.sleeping {
			next = p.cfg.MaxProbeInterval
		}
	}
	if next > 1 {
		p.declareCadence(uint64(next))
	}
	if next > p.sstats.WidestInterval {
		p.sstats.WidestInterval = next
	}
	p.probeWait = next
	telemetry.SamplingInterval.Set(float64(next))
}

// quiet reports whether the probe found the system at a rest point: every
// group's directive Run, every engine idle, every neighbour's latest
// per-period pressure below the noise threshold, and no publisher late
// against its declared cadence. Only then may the schedule widen.
func (p *Pipeline) quiet() bool {
	for g := range p.groups {
		if p.groups[g].directive == comm.DirectivePause {
			return false
		}
	}
	for _, b := range p.batches {
		if b.engine != nil && !b.engine.Idle() {
			return false
		}
	}
	for _, mon := range p.monitors {
		if mon.slot.LastSample() >= noiseThresh || mon.slot.StalePeriods() > 0 {
			return false
		}
	}
	return true
}

// declareCadence re-stamps every on-schedule slot's expected next publish
// to cadence periods out. Slots already late (a dead monitor) are left
// alone so their staleness keeps accruing toward the watchdog horizon —
// the schedule must never mask a real failure.
func (p *Pipeline) declareCadence(cadence uint64) {
	for _, mon := range p.monitors {
		if mon.slot.StalePeriods() == 0 {
			mon.slot.DeclareCadence(cadence)
		}
	}
	for _, b := range p.batches {
		if b.slot.StalePeriods() == 0 {
			b.slot.DeclareCadence(cadence)
		}
	}
}

// sleep parks the pipeline behind the threshold triggers, armed at the
// current counts; afterProbe declares the keepalive cadence.
func (p *Pipeline) sleep() {
	p.sleeping = true
	p.quietStreak = 0
	p.armedStart = p.m.Periods()
	for _, tr := range p.triggers {
		tr.Arm()
	}
}

// wake ends a sleep stretch — fired > 0 when threshold triggers woke the
// pipeline, 0 when a keepalive probe found the rest point gone or a batch
// application attached. The armed span (and, on a fire, the fired marker)
// is recorded on every engine lane, stamped in machine periods (engine
// ticks do not advance during sleep).
func (p *Pipeline) wake(fired int) {
	p.sleeping = false
	p.quietStreak = 0
	now := p.m.Periods()
	n := now - p.armedStart
	if n == 0 {
		n = 1
	}
	val := 0.0
	if fired > 0 {
		val = 1
		p.sstats.TriggerFires++
	}
	for _, b := range p.batches {
		eng := b.engine
		if eng == nil {
			continue
		}
		eng.spans.Record(eng.track, telemetry.SpanArmed, p.armedStart, uint32(n), val)
		if fired > 0 {
			eng.spans.Record(eng.track, telemetry.SpanFired, now, 1, float64(fired))
		}
	}
	telemetry.SamplingInterval.Set(1)
}
