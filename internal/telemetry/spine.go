package telemetry

import "io"

// The default spine: one process-wide registry plus one span recorder, with
// every metric family the runtime emits pre-registered below. Packages
// import these handles directly — expvar-style — so instrumenting a hot
// function needs no constructor plumbing and costs exactly one atomic op.
// The name table is documented in DESIGN.md §10; keep the two in sync.
var defaultRegistry = NewRegistry()

// DefaultSpans records detection-pipeline spans process-wide. At 8 tracks
// emitting ~2 spans/period the ring retains on the order of 15k periods
// (15 s of the paper's 1 ms clock) before drop-oldest kicks in; drops are
// themselves surfaced (caer_telemetry_spans_dropped_total).
var DefaultSpans = NewSpanRecorder(1<<18, &defaultRegistry.selfOps)

// Default returns the process-wide registry (for export surfaces and for
// deployment code registering dynamic per-core series).
func Default() *Registry { return defaultRegistry }

// Pre-registered hot-path handles. Registration (locking, allocating)
// happens once at package init; the handles themselves are the lock-free,
// allocation-free interface the per-period loop uses.
var (
	// pmu: counter reads and fault plumbing.
	PMUReads  = defaultRegistry.Counter("caer_pmu_reads_total", "PMU read-and-restart counter reads")
	PMURearms = defaultRegistry.Counter("caer_pmu_rearms_total", "PMU re-arms after a regressing (reset/wrapped) raw counter")
	PMUProbes = defaultRegistry.Counter("caer_pmu_probes_total", "per-period sampler sweeps across all PMU events")

	// Sampling modes: probes skipped by the adaptive/interrupt controllers
	// and threshold-trigger fires (the event-driven wakeups).
	PMUProbesSkipped = defaultRegistry.Counter("caer_pmu_probes_skipped_total", "per-period probes skipped by the sampling controller (adaptive/interrupt modes)")
	PMUTriggerFires  = defaultRegistry.Counter("caer_pmu_trigger_fires_total", "threshold-interrupt trigger fires (event-driven wakeups)")

	PMUFaultResets  = defaultRegistry.Counter("caer_pmu_faults_total", "injected PMU faults by class", "class", "reset")
	PMUFaultSpikes  = defaultRegistry.Counter("caer_pmu_faults_total", "injected PMU faults by class", "class", "spike")
	PMUFaultDrops   = defaultRegistry.Counter("caer_pmu_faults_total", "injected PMU faults by class", "class", "drop")
	PMUFaultJitters = defaultRegistry.Counter("caer_pmu_faults_total", "injected PMU faults by class", "class", "jitter")

	// comm: table traffic and the liveness signal the watchdog consumes.
	CommPublishes  = defaultRegistry.Counter("caer_comm_publishes_total", "slot sample publishes into the communication table")
	CommBroadcasts = defaultRegistry.Counter("caer_comm_broadcasts_total", "table-wide directive broadcasts to batch slots")
	CommStaleness  = defaultRegistry.Histogram("caer_comm_staleness_periods", "neighbour sample staleness observed by engines each tick, in periods", 0, 64, 16)
	CommPeriod     = defaultRegistry.Gauge("caer_comm_period", "communication-table period clock")

	// caer engine: the detect/respond state machine (Figure 5).
	EngineTicks             = defaultRegistry.Counter("caer_engine_ticks_total", "engine detect/respond ticks")
	EngineVerdictContention = defaultRegistry.Counter("caer_engine_verdicts_total", "detection verdicts by outcome", "verdict", "contention")
	EngineVerdictClear      = defaultRegistry.Counter("caer_engine_verdicts_total", "detection verdicts by outcome", "verdict", "clear")
	EngineHolds             = defaultRegistry.Counter("caer_engine_holds_total", "response holds entered after a contention verdict")
	EngineHoldPeriods       = defaultRegistry.Histogram("caer_engine_hold_periods", "length of response holds, in periods", 0, 256, 32)
	EngineDirectiveChanges  = defaultRegistry.Counter("caer_engine_directive_changes_total", "engine directive transitions (run<->pause)")
	EnginePausedPeriods     = defaultRegistry.Counter("caer_engine_paused_periods_total", "periods the batch app spent paused under an engine directive")
	EngineWatchdogTrips     = defaultRegistry.Counter("caer_engine_watchdog_trips_total", "watchdog trips into degraded fail-open mode")
	EngineDegradedTicks     = defaultRegistry.Counter("caer_engine_degraded_ticks_total", "engine ticks spent in degraded fail-open mode")
	EngineMode              = defaultRegistry.Gauge("caer_engine_mode", "sampling mode of the most recently started runtime (0 polling, 1 adaptive, 2 interrupt)")
	SamplingInterval        = defaultRegistry.Gauge("caer_sampling_interval", "current probe interval of the most recently probing runtime, in periods")

	// sched: placement, admission, and migration decisions.
	SchedAdmissions     = defaultRegistry.Counter("caer_sched_admissions_total", "jobs admitted from the queue onto cores")
	SchedAgedBypasses   = defaultRegistry.Counter("caer_sched_aged_bypasses_total", "admissions that bypassed veto/rate limits via the aging bound")
	SchedVetoes         = defaultRegistry.Counter("caer_sched_vetoes_total", "admission attempts vetoed by the interference score")
	SchedMigrations     = defaultRegistry.Counter("caer_sched_migrations_total", "jobs migrated between cores")
	SchedCompletions    = defaultRegistry.Counter("caer_sched_completions_total", "scheduled jobs run to completion")
	SchedFlipsAggressor = defaultRegistry.Counter("caer_sched_class_flips_total", "classifier class flips by class", "class", "aggressor")
	SchedFlipsSensitive = defaultRegistry.Counter("caer_sched_class_flips_total", "classifier class flips by class", "class", "sensitive")
	SchedQueueDepth     = defaultRegistry.Gauge("caer_sched_queue_depth", "jobs waiting in the admission queue")
	SchedRunning        = defaultRegistry.Gauge("caer_sched_running", "jobs currently resident on cores")

	// part: the LLC way-partitioning response family (cluster plans and
	// online resizes; DESIGN.md §16).
	PartPlanChanges   = defaultRegistry.Counter("caer_part_plans_total", "cluster-plan changes produced by the partition planner")
	PartResizes       = defaultRegistry.Counter("caer_part_resizes_total", "per-owner L3 way-mask resizes applied")
	PartOrphans       = defaultRegistry.Counter("caer_part_orphans_total", "lines stranded outside their owner's mask by resizes")
	PartProtectedWays = defaultRegistry.Gauge("caer_part_protected_ways", "ways in the protected (sensitive) partition of the most recently planned domain")
	PartConfinedWays  = defaultRegistry.Gauge("caer_part_confined_ways", "ways in the confined (aggressor) partition of the most recently planned domain")
	PartPressure      = defaultRegistry.Gauge("caer_part_pressure", "verdict-driven confinement pressure of the most recently planned domain")

	// fleet: cluster-level traffic, dispatch, and cross-machine migration.
	FleetTicks       = defaultRegistry.Counter("caer_fleet_ticks_total", "fleet scheduler ticks (one per cluster-wide period)")
	FleetArrivals    = defaultRegistry.Counter("caer_fleet_arrivals_total", "jobs arrived into the fleet admission queue")
	FleetDispatches  = defaultRegistry.Counter("caer_fleet_dispatches_total", "jobs dispatched from the fleet queue onto machines")
	FleetMigrations  = defaultRegistry.Counter("caer_fleet_migrations_total", "queued jobs migrated between machines")
	FleetCompletions = defaultRegistry.Counter("caer_fleet_completions_total", "fleet jobs run to completion")
	FleetRequests    = defaultRegistry.Counter("caer_fleet_requests_total", "latency-service requests completed across the fleet")
	FleetQueueDepth  = defaultRegistry.Gauge("caer_fleet_queue_depth", "jobs waiting in the fleet admission queue")

	// runner: deployment-level runs.
	RunnerRunsAlone     = defaultRegistry.Counter("caer_runner_runs_total", "scenario runs by mode", "mode", "alone")
	RunnerRunsNative    = defaultRegistry.Counter("caer_runner_runs_total", "scenario runs by mode", "mode", "native")
	RunnerRunsCAER      = defaultRegistry.Counter("caer_runner_runs_total", "scenario runs by mode", "mode", "caer")
	RunnerRunsScheduled = defaultRegistry.Counter("caer_runner_runs_total", "scenario runs by mode", "mode", "scheduled")
	RunnerPeriods       = defaultRegistry.Counter("caer_runner_periods_total", "sampling periods executed across all runs (rate = simulated periods/sec)")

	// telemetry self-accounting: synced from internal atomics by
	// WriteSnapshot so the layer reports its own cost.
	telemetryOps          = defaultRegistry.Counter("caer_telemetry_ops_total", "hot-path telemetry operations (self-cost account)")
	telemetrySpans        = defaultRegistry.Counter("caer_telemetry_spans_total", "spans recorded into the default ring")
	telemetrySpansDropped = defaultRegistry.Counter("caer_telemetry_spans_dropped_total", "spans evicted from the default ring")
)

// syncSelf copies the self-accounting atomics into their exported counters.
// Same-package direct store: these counters are never Inc'd.
func syncSelf() {
	telemetryOps.v.Store(defaultRegistry.SelfOps())
	telemetrySpans.v.Store(DefaultSpans.Total())
	telemetrySpansDropped.v.Store(DefaultSpans.Dropped())
}

// WriteSnapshot writes the default registry as Prometheus text, first
// syncing the self-cost counters. This is the one snapshot entry point —
// the HTTP /metrics handler, the -telemetry-out file writer, and caer-top
// all read this format.
func WriteSnapshot(out io.Writer) error {
	syncSelf()
	return defaultRegistry.WritePrometheus(out)
}
