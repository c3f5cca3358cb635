package analysis

import (
	"go/types"
	"slices"
	"strings"
)

// Config holds what the analyzers need to know about the repository that
// is not a property of one declaration: which packages play a role, and
// the telemetry family inventory. Facts about individual functions — hot
// roots, cold barriers, allocating APIs, deterministic result assembly —
// are //caer: directives in those functions' doc comments (Directives),
// and enums are derived from the types themselves (EnumSwitch). Package
// entries are final import-path elements, so "mem" matches
// caer/internal/mem as well as a testdata package named mem.
type Config struct {
	// ModulePath is the import path of the module under analysis; set by
	// Vet. lockdiscipline scopes its error-discard rule, and enumswitch its
	// enum derivation, to declarations inside this module.
	ModulePath string

	// DeterministicPkgs lists final import-path elements whose entire
	// package must be bit-reproducible: the simulation core the byte-
	// identity gates (DESIGN.md §6, §11) depend on.
	DeterministicPkgs []string

	// EnumIgnorePrefixes lists constant-name prefixes excluded from
	// exhaustiveness (count sentinels like numEvents).
	EnumIgnorePrefixes []string

	// MetricNames is the telemetry family inventory (DESIGN.md §10's
	// registry table): every name passed to a telemetry registration
	// call must appear here, so the spine and the docs cannot drift.
	MetricNames []string

	// ReportUnusedSuppressions turns directives the tree no longer needs
	// into findings: stale //caer:allow comments, redundant //caer:hot
	// roots, unreached barriers (the -unused-suppressions flag; on in CI).
	ReportUnusedSuppressions bool
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs:  []string{"machine", "mem", "sched", "caer", "fleet"},
		EnumIgnorePrefixes: []string{"num"},
		MetricNames: []string{
			"caer_pmu_reads_total", "caer_pmu_rearms_total", "caer_pmu_probes_total",
			"caer_pmu_probes_skipped_total", "caer_pmu_trigger_fires_total",
			"caer_pmu_faults_total",
			"caer_comm_publishes_total", "caer_comm_broadcasts_total",
			"caer_comm_staleness_periods", "caer_comm_period",
			"caer_engine_ticks_total", "caer_engine_verdicts_total",
			"caer_engine_holds_total", "caer_engine_hold_periods",
			"caer_engine_directive_changes_total", "caer_engine_paused_periods_total",
			"caer_engine_watchdog_trips_total", "caer_engine_degraded_ticks_total",
			"caer_engine_log_dropped_total",
			"caer_engine_mode", "caer_sampling_interval",
			"caer_core_pressure", "caer_core_directive", "caer_core_degraded",
			"caer_sched_admissions_total", "caer_sched_aged_bypasses_total",
			"caer_sched_vetoes_total", "caer_sched_migrations_total",
			"caer_sched_completions_total", "caer_sched_class_flips_total",
			"caer_sched_queue_depth", "caer_sched_running",
			"caer_part_plans_total", "caer_part_resizes_total",
			"caer_part_orphans_total",
			"caer_part_protected_ways", "caer_part_confined_ways",
			"caer_part_pressure",
			"caer_runner_runs_total", "caer_runner_periods_total",
			"caer_telemetry_ops_total", "caer_telemetry_spans_total",
			"caer_telemetry_spans_dropped_total",
			"caer_fleet_ticks_total", "caer_fleet_arrivals_total",
			"caer_fleet_dispatches_total", "caer_fleet_migrations_total",
			"caer_fleet_completions_total", "caer_fleet_requests_total",
			"caer_fleet_queue_depth",
			"caer_fleet_node_dispatches_total", "caer_fleet_node_completions_total",
			"caer_fleet_node_withdrawals_total", "caer_fleet_node_queue_depth",
			"caer_fleet_node_sojourn_periods",
			"caer_fleet_node_free_cores", "caer_fleet_node_sensitivity",
			"caer_fleet_node_batch_load", "caer_fleet_node_degraded_ticks_total",
			"caer_fleet_request_latency_periods",
			"caer_series_samples_total", "caer_series_tracks",
			"caer_slo_state", "caer_slo_burn_fast", "caer_slo_burn_slow",
			"caer_slo_alerts_total", "caer_slo_evals_total",
		},
	}
}

// pkgBase returns the last element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsDeterministicPkg reports whether the whole package is held to the
// determinism rules.
func (c *Config) IsDeterministicPkg(pkgPath string) bool {
	return slices.Contains(c.DeterministicPkgs, pkgBase(pkgPath))
}

// IsMetricName reports whether a telemetry family name is in the spine
// inventory.
func (c *Config) IsMetricName(name string) bool {
	return slices.Contains(c.MetricNames, name)
}

// isSentinelConst reports whether a constant name is a count sentinel
// excluded from exhaustiveness.
func (c *Config) isSentinelConst(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range c.EnumIgnorePrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// InModule reports whether a package path belongs to the analyzed module.
func (c *Config) InModule(pkgPath string) bool {
	return c.ModulePath != "" &&
		(pkgPath == c.ModulePath || strings.HasPrefix(pkgPath, c.ModulePath+"/"))
}

// recvTypeName extracts the bare receiver type name of a method
// declaration ("Engine" from func (e *Engine) Tick...), or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
