package fleet

import (
	"fmt"
	"strings"

	"caer/internal/sched"
)

// Policy selects the cross-machine placement strategy the fleet scheduler
// uses to map arriving jobs onto machines. It is the cluster-level
// analogue of sched.Policy, which then places the job onto an LLC domain
// within the chosen machine; both levels pick with sched.Picker.
type Policy int

const (
	// PolicyRoundRobin rotates dispatches across machines with spare
	// capacity, blind to contention — the topology-only baseline.
	PolicyRoundRobin Policy = iota
	// PolicyLeastPressure greedily sends each job to the machine where
	// its predicted interference with the resident latency services is
	// lowest, using every machine's classifier view (sensitivity, live LLC
	// pressure, resident batch aggressiveness).
	PolicyLeastPressure
	// PolicyPacked fills the lowest-numbered machine first — the
	// consolidation baseline.
	PolicyPacked
	// PolicyTelemetry places by each machine's exported metrics — the
	// scraped caer_core_pressure gauges, per-service latency histograms,
	// and SLO burn state — instead of the synchronous classifier view.
	// A machine whose scrape is stale past the staleness horizon is scored
	// with the least-pressure fallback, so a dead telemetry plane degrades
	// the policy to PolicyLeastPressure rather than wedging placement.
	PolicyTelemetry
)

// policies names every policy — in reports and event dumps, and as a
// -policy flag value — and says how sched.Picker picks under it. The two
// scoring policies differ only in what machineSet.Score reads.
var policies = [...]struct {
	name, flag string
	pick       sched.Policy
}{
	PolicyRoundRobin:    {"round-robin", "rr", sched.PolicyRoundRobin},
	PolicyLeastPressure: {"least-pressure", "lp", sched.PolicyContentionAware},
	PolicyPacked:        {"packed", "packed", sched.PolicyPacked},
	PolicyTelemetry:     {"telemetry", "telemetry", sched.PolicyContentionAware},
}

// String names the policy.
func (p Policy) String() string {
	if p < 0 || int(p) >= len(policies) {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policies[p].name
}

// ParsePolicy resolves a -policy flag value: a policy's flag name or its
// full name. The error lists the flag names the table has.
func ParsePolicy(s string) (Policy, error) {
	flags := make([]string, len(policies))
	for p, e := range policies {
		if s == e.flag || s == e.name {
			return Policy(p), nil
		}
		flags[p] = e.flag
	}
	return 0, fmt.Errorf("unknown policy %q (want one of %s)", s, strings.Join(flags, ", "))
}

// NodeView is one machine as a placement candidate: the machine-wide
// classifier view (sched.Scheduler.Summarize) plus the candidate job's
// aggressiveness as that machine's classifier knows it (machines that have
// hosted the program before predict it better). The cluster refills a
// preallocated []NodeView every dispatch decision.
type NodeView struct {
	sched.View
	// Aggr is the candidate job's classifier aggressiveness on this
	// machine (the prior 0.5 when the machine has never run the program).
	Aggr float64
	// Tel is the machine's scraped-telemetry view (zero under policies
	// that never scrape; Fresh=false then).
	Tel TelView
}

// burnPenalty is the telemetry score surcharge per firing SLO alert: a
// machine actively burning error budget repels new batch work outright —
// one firing alert outweighs any pressure difference in [0, 2).
const burnPenalty = 2.0

// telemetryScore is sched.Interference with every machine-side term
// sourced from the scraped metrics instead of the synchronous view, plus
// what only telemetry can see: the observed request-latency tail and the
// SLO burn state.
func telemetryScore(v *NodeView) float64 {
	scraped := sched.View{Sensitivity: v.Tel.Sensitivity, Pressure: v.Tel.Pressure, BatchLoad: v.Tel.BatchLoad}
	return sched.Interference(scraped, v.Aggr) +
		v.Tel.LatencyP99/latencyHistMax +
		burnPenalty*float64(v.Tel.Burning)
}

// machineSet is the cluster's candidate set: its machines, scored for the
// job being dispatched. Under PolicyTelemetry (scraped) a machine is scored
// by its scraped metrics when they are fresh and by the synchronous
// least-pressure score when the scrape is stale past the horizon — so with
// every machine stale (total scrape outage) the policy is exactly
// PolicyLeastPressure, same scores, same tie-breaks, which the
// staleness-fallback test pins.
type machineSet struct {
	views   []NodeView
	scraped bool
}

func (ms *machineSet) Len() int            { return len(ms.views) }
func (ms *machineSet) Eligible(k int) bool { return ms.views[k].Eligible() }
func (ms *machineSet) Score(k int) float64 {
	v := &ms.views[k]
	if ms.scraped && v.Tel.Fresh {
		return telemetryScore(v)
	}
	return sched.Interference(v.View, v.Aggr)
}
