// Package sched is the contention-aware placement and admission subsystem
// layered over the CAER runtime's signals. Where the paper's CAER only ever
// throttles a batch application already glued to a fixed core (its §7
// future work points at richer responses), sched decides *where* and
// *when* batch work runs on a multi-LLC-domain machine:
//
//   - a Classifier maintains online per-application contention profiles
//     (aggressiveness = normalized LLC-miss pressure; sensitivity =
//     normalized LLC reuse) from windowed PMU samples, with hysteresis on
//     the binary classes (LFOC-style);
//   - one placement engine, the Picker, chooses among Candidates by policy
//     (round-robin, packed, or contention-aware: the lowest greedy
//     predicted-interference score, Interference). The scheduler drives it
//     over its LLC domains; the fleet drives the same Picker over machines;
//   - an admission queue holds submitted jobs back while every eligible
//     domain's predicted pressure exceeds a threshold, admitting them as
//     pressure subsides, with a starvation-avoidance aging bound;
//   - bounded-rate migration re-places at most one running job per
//     migration interval when another domain's predicted interference is
//     lower by a hysteresis margin.
//
// The detect/respond loop itself is caer.Pipeline, one LLC group per
// domain: a job is attached when placed and detached when it leaves a core,
// so it runs under a CAER engine scoped to its domain's latency-sensitive
// neighbours, and Config.Caer means what it means for a caer.Runtime. A
// Step is: arm, the machine's period, and the control half at the period
// boundary — the pipeline's control half, classifier feed from what it
// probed (sched.go); finish/age/admit/migrate (admit.go); the partition
// planner (cluster.go). report.go is the read side, deploy.go the process
// layout and the closed-job-set run on it (RunJobs). The per-period path is
// allocation-free and audited by caer-vet's hotpath analyzer (the fleet
// tick, a //caer:hot root, reaches Arm and Control; the decision paths are
// //caer:cold).
package sched

import (
	"fmt"

	"caer/internal/caer"
	"caer/internal/comm"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/telemetry"
)

// ResponseKind selects the scheduler's contention response family.
type ResponseKind int

const (
	// ResponseThrottle pauses a domain's batch set on contention verdicts
	// (the paper's red-light/green-light and soft-lock levers). Default.
	ResponseThrottle ResponseKind = iota
	// ResponsePartition never pauses: it resizes LLC way-partitions
	// instead, confining aggressors so they physically cannot evict the
	// sensitive apps' lines (LFOC-style).
	ResponsePartition
	// ResponseHybrid does both: partitions are maintained and contention
	// verdicts still throttle.
	ResponseHybrid
)

// String names the response kind.
func (k ResponseKind) String() string {
	switch k {
	case ResponseThrottle:
		return "throttle"
	case ResponsePartition:
		return "partition"
	case ResponseHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("ResponseKind(%d)", int(k))
	}
}

// Job is one batch work item submitted to the admission queue. New builds
// the job's process when it is first placed; it runs to completion and is
// not relaunched, so its profile should carry a finite instruction count.
type Job struct {
	Name string
	New  func() *machine.Process
}

// Config tunes the scheduler.
type Config struct {
	// Policy selects the placement strategy (default PolicyRoundRobin,
	// the zero value, so the contention-aware behaviour is opt-in).
	Policy Policy
	// Heuristic and Caer configure the per-job CAER engines (defaults:
	// rule-based pairing, caer.DefaultConfig).
	Heuristic caer.HeuristicKind
	Caer      caer.Config
	// PressureScale is the misses/period (and hits/period) rate that
	// normalizes to a 0.5 classifier score; default Caer.UsageThresh.
	PressureScale float64
	// AdmitThreshold is the predicted-interference score above which the
	// chosen domain refuses admission and the queue waits. Default 0.75.
	AdmitThreshold float64
	// AgingBound is the starvation-avoidance limit: a job that has waited
	// this many periods is admitted to the best domain with a free core
	// regardless of the threshold. Default 400.
	AgingBound int
	// MigrationPeriod evaluates at most one job migration every this many
	// periods; 0 disables migration (the default).
	MigrationPeriod int
	// Response selects the contention response family: throttle (the
	// default), LLC way-partitioning, or both (DESIGN.md §16).
	Response ResponseKind
	// Cluster tunes the partition planner when Response is
	// ResponsePartition or ResponseHybrid.
	Cluster ClusterConfig
	// TrackOffset shifts every span-recorder track id this scheduler uses
	// by a constant, so N schedulers (one per fleet machine) can share one
	// process-wide span ring without colliding on slot ids: machine k's
	// fleet layer passes a disjoint offset and one Chrome trace covers the
	// whole fleet. 0 (the default) keeps single-machine traces unchanged.
	TrackOffset int32
	// TrackPrefix prepends a lane-name prefix (e.g. "m3/") to every span
	// track this scheduler names, so the merged fleet trace identifies
	// which machine each lane belongs to. "" (the default) keeps
	// single-machine lane names unchanged.
	TrackPrefix string
	// Spans is the recorder every span this scheduler (and the monitors
	// and engines it builds) emits lands on. nil (the default) uses the
	// process-wide telemetry.DefaultSpans; the fleet layer passes its own
	// ring so a fleet run's trace is self-contained and deterministic
	// regardless of what else the process records.
	Spans *telemetry.SpanRecorder
}

func (c Config) withDefaults() Config {
	if c.Caer.WindowSize == 0 {
		c.Caer = caer.DefaultConfig()
	}
	if c.PressureScale == 0 {
		c.PressureScale = c.Caer.UsageThresh
	}
	if c.PressureScale <= 0 {
		c.PressureScale = 150
	}
	if c.AdmitThreshold == 0 {
		c.AdmitThreshold = 0.75
	}
	if c.AgingBound == 0 {
		c.AgingBound = 400
	}
	return c
}

// classHysteresis is the classifier's class-flip streak, in periods.
const classHysteresis = 8

// migrationMargin is the minimum predicted-interference improvement a
// migration must buy.
const migrationMargin = 0.25

// latApp is one hosted latency-sensitive application.
type latApp struct {
	name       string
	core       int
	domain     int
	app        int // classifier id
	proc       *machine.Process
	mon        *caer.Monitor
	donePeriod uint64 // 1-based period the app completed in; 0 = running
}

// jobState is a submitted job's full lifecycle record.
type jobState struct {
	id    int
	spec  Job
	app   int // classifier id (shared between same-named jobs)
	state JobState

	proc  *machine.Process
	slot  *comm.Slot
	batch *caer.Batch // the pipeline attachment while running, else nil

	core, domain int
	waited       int
	aged         bool
	admitted     uint64 // 1-based period; 0 = never
	done         uint64

	migrations int
	missTotal  uint64           // lifetime LLC misses observed by the scheduler
	stats      caer.EngineStats // folded from every engine the job has left
}

// Scheduler drives a multi-LLC-domain machine one sampling period at a
// time: latency-sensitive apps are bound up front (one monitor each, as in
// caer.Runtime), while batch jobs flow through the admission queue and the
// placement engine instead of being pinned at construction.
type Scheduler struct {
	m          *machine.Machine
	cfg        Config
	pipe       *caer.Pipeline
	picker     Picker
	classifier *Classifier

	latency   []latApp
	jobs      []*jobState
	running   []*jobState // on a core, in job-id order
	open      int         // jobs not yet done or withdrawn
	queue     Queue
	appByName map[string]int

	doms      domainSet // one view per domain, as are freeCount and parts
	freeCount []int
	coreBusy  []bool
	parts     []domainPartition // partition stage; nil under ResponseThrottle

	decisions       []Decision
	degradedRetired uint64 // degraded ticks of engines already folded into their jobs
	migrations      int
	maxWait         int
	period          uint64
	started         bool
	// spans is the resolved recorder (Config.Spans or DefaultSpans).
	spans *telemetry.SpanRecorder
}

// keepRunning is the pure partition response's actuator: verdicts move
// way-masks (applyPartitions reads them as pressure), never pause a core.
func keepRunning(*machine.Core, comm.Directive) {}

// New builds a scheduler over m. Two or more LLC domains, with free cores
// beyond the latency apps, make placement meaningful.
func New(m *machine.Machine, cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	spans := cfg.Spans
	if spans == nil {
		spans = telemetry.DefaultSpans
	}
	actuator := caer.PauseActuator
	if cfg.Response == ResponsePartition {
		actuator = keepRunning
	}
	pipe := caer.NewPipeline(m, cfg.Heuristic, cfg.Caer, m.Domains(), caer.WithActuator(actuator))
	pipe.SetLanes(spans, cfg.TrackOffset, cfg.TrackPrefix)
	s := &Scheduler{
		m:          m,
		cfg:        cfg,
		spans:      spans,
		pipe:       pipe,
		picker:     NewPicker(cfg.Policy),
		classifier: NewClassifier(cfg.PressureScale, classHysteresis),
		appByName:  make(map[string]int),
		doms:       domainSet{views: make([]View, m.Domains())},
		freeCount:  make([]int, m.Domains()),
		coreBusy:   make([]bool, m.Cores()),
	}
	for d := range s.freeCount {
		lo, hi := m.DomainCores(d)
		s.freeCount[d] = hi - lo
	}
	return s
}

// Migrations returns how many cross-domain job migrations occurred.
func (s *Scheduler) Migrations() int { return s.migrations }

// MaxWait returns the longest time (periods) any admitted job spent
// queued. The admission queue's starvation bound guarantees this never
// exceeds Config.AgingBound while cores are available.
func (s *Scheduler) MaxWait() int { return s.maxWait }

// QueueLen returns the number of jobs currently waiting.
func (s *Scheduler) QueueLen() int { return s.queue.Len() }

// JobStateOf returns job's lifecycle state. Allocation-free; the fleet
// layer polls it every period to harvest admissions and completions.
func (s *Scheduler) JobStateOf(job int) JobState { return s.jobs[job].state }

// JobAdmittedPeriod returns the 1-based period job left the queue for a
// core (0 = not yet admitted). Allocation-free.
func (s *Scheduler) JobAdmittedPeriod(job int) uint64 { return s.jobs[job].admitted }

// LatencyApps returns the number of hosted latency-sensitive apps.
//
//caer:hot
func (s *Scheduler) LatencyApps() int { return len(s.latency) }

// Monitor returns latency app i's CAER-M monitor, in registration order —
// the fault-injection hook (SetDown) the chaos and SLO suites script
// monitor outages through, as caer.Pipeline's Monitors accessor.
func (s *Scheduler) Monitor(i int) *caer.Monitor { return s.latency[i].mon }

// AddLatency binds a latency-sensitive application to a core under a
// CAER-M monitor. Must be called before the first Step.
func (s *Scheduler) AddLatency(name string, core int, proc *machine.Process) {
	if s.started {
		panic("sched: latency apps must be added before the first Step")
	}
	if core < 0 || core >= s.m.Cores() {
		panic(fmt.Sprintf("sched: latency core %d out of range [0,%d)", core, s.m.Cores()))
	}
	if s.coreBusy[core] {
		panic(fmt.Sprintf("sched: core %d already hosts a latency app", core))
	}
	s.m.Bind(core, proc)
	domain := s.m.DomainOf(core)
	s.coreBusy[core] = true
	s.freeCount[domain]--
	s.latency = append(s.latency, latApp{
		name:   name,
		core:   core,
		domain: domain,
		app:    s.classifier.AddApp(),
		proc:   proc,
		mon:    s.pipe.AddMonitor(name, core, domain),
	})
}

// Arm builds the deployment for the first period — the partition stage and
// the pipeline's probe schedule — and must run before the machine steps.
// Idempotent; Step calls it, so only a caller that runs the period itself
// (the fleet) needs to.
func (s *Scheduler) Arm() {
	if !s.started {
		s.start()
	}
}

//caer:cold one-time lazy deployment build before the first period, as caer.Runtime.start
func (s *Scheduler) start() {
	if len(s.latency) == 0 {
		panic("sched: scheduler needs at least one latency-sensitive app")
	}
	if s.cfg.Response != ResponseThrottle {
		s.startPartitions()
	}
	s.pipe.Arm()
	s.started = true
}

// Step advances the deployment by one sampling period: arm, let the machine
// run the period, then the control half at the period boundary.
func (s *Scheduler) Step() {
	s.Arm()
	s.m.RunPeriod()
	s.Control()
}

// Control is the half of a period that runs at its boundary, after the
// machine has stepped (Arm before the first): the pipeline's control half
// (all batch jobs in a domain react together — the paper's §3.2 scoped to
// the LLC they share), then the classifier feed from what the pipeline
// probed, then retire finished jobs, take admission and migration
// decisions, and run the partition planner.
func (s *Scheduler) Control() {
	s.period++
	if span := s.pipe.Control(); span > 0 {
		s.observe(span)
	}
	for i := range s.latency {
		la := &s.latency[i]
		if la.donePeriod == 0 && la.proc.Done() {
			la.donePeriod = s.period
		}
	}
	s.finishJobs()
	s.ageQueue()
	s.admit()
	s.maybeMigrate()
	if s.parts != nil {
		s.applyPartitions()
	}
	telemetry.SchedQueueDepth.Set(float64(s.queue.Len()))
	telemetry.SchedRunning.Set(float64(len(s.running)))
}

// RunUntil steps until stop returns true or maxPeriods elapse, returning
// the number of periods executed.
func (s *Scheduler) RunUntil(stop func() bool, maxPeriods int) int {
	for i := 0; i < maxPeriods; i++ {
		if stop() {
			return i
		}
		s.Step()
	}
	return maxPeriods
}

// Done reports whether every submitted batch job has run to completion or
// been withdrawn by the fleet layer. Latency apps are long-running services
// and do not gate completion; see LatencyReports for their lifecycle.
func (s *Scheduler) Done() bool { return s.open == 0 }

// observe feeds the classifier from the probe the pipeline just ran: every
// app's LLC misses and hits, normalized by the periods the probe spans so
// the windows stay in events-per-period units under every sampling mode.
// Allocation-free.
func (s *Scheduler) observe(span uint64) {
	for i := range s.latency {
		la := &s.latency[i]
		s.feed(la.app, la.mon.Misses(), la.mon.PMU(), span)
	}
	for _, j := range s.running {
		misses, span := j.batch.Sample()
		j.missTotal += misses
		s.feed(j.app, misses, j.batch.PMU(), span)
	}
}

// feed records one probe of app: the misses the pipeline read, and the LLC
// accesses read here off the same counter view.
func (s *Scheduler) feed(app int, misses uint64, p *pmu.PMU, span uint64) {
	n := float64(span)
	miss := float64(misses) / n
	s.classifier.Observe(app, miss, float64(p.ReadDelta(pmu.EventLLCAccesses))/n-miss)
}

// pressure normalizes a windowed LLC-miss mean to [0, 1), 0.5 at
// PressureScale — the placement term Summarize, fillViews and
// LatencyPressure share.
func (s *Scheduler) pressure(la *latApp) float64 {
	p := la.mon.Slot().WindowMean()
	return p / (p + s.cfg.PressureScale)
}
