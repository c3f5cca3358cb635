package sched

import (
	"fmt"
	"strings"
)

// Policy selects the placement strategy the scheduler uses to map admitted
// batch jobs onto LLC domains.
type Policy int

const (
	// PolicyRoundRobin rotates admissions across domains with free cores,
	// blind to contention — the classic topology-only baseline.
	PolicyRoundRobin Policy = iota
	// PolicyContentionAware greedily places each job on the domain where
	// its predicted interference with latency-sensitive apps is lowest,
	// using the classifier's aggressiveness/sensitivity scores.
	PolicyContentionAware
	// PolicyPacked fills the lowest-numbered domain first — the seed
	// runner's "all batches on one LLC domain" shape.
	PolicyPacked
)

// policies names every policy: in reports, and as a -policy flag value.
var policies = [...]struct{ name, flag string }{
	PolicyRoundRobin:      {"round-robin", "rr"},
	PolicyContentionAware: {"contention-aware", "ca"},
	PolicyPacked:          {"packed", "packed"},
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

// View is one placement candidate's state as the picker's callers score
// it: an LLC domain when the scheduler admits or migrates a job, a whole
// machine (Summarize) when the fleet dispatches one. Views are refilled in
// place before every decision; nothing retains them.
type View struct {
	// FreeCores is the number of unoccupied batch cores.
	FreeCores int
	// Queued is the number of jobs already waiting for those cores: the
	// machine's admission-queue depth, and 0 for a domain (the queue is the
	// machine's, not the domain's).
	Queued int
	// Sensitivity is the summed classifier sensitivity score of the
	// candidate's latency-sensitive apps — how much they stand to lose to a
	// co-located aggressor.
	Sensitivity float64
	// Pressure is those apps' current windowed LLC-miss pressure,
	// normalized to [0, 1) per app and summed.
	Pressure float64
	// BatchLoad is the summed aggressiveness of batch jobs already running
	// there.
	BatchLoad float64
}

// Eligible reports whether the candidate can take another job: more free
// batch cores than jobs already waiting for them. For a domain that is "a
// free core"; for a machine, dispatch past that point only builds
// machine-local backlog the fleet queue models better (and migration would
// immediately want to undo).
func (v *View) Eligible() bool { return v.FreeCores > v.Queued }

// batchLoadWeight discounts already-running batch aggressiveness against
// latency sensitivity in the greedy score: protecting latency apps
// dominates, but piling every aggressor onto one candidate still costs.
const batchLoadWeight = 0.3

// Interference is the one greedy scorer — admission, the admit-threshold
// veto, intra-machine migration, fleet dispatch and (over the scraped
// terms) the fleet's telemetry score all call it: the predicted marginal
// interference of putting a job with aggressiveness aggr onto the
// candidate. Latency sensitivity and live pressure both make a candidate
// expensive, scaled up by how aggressive the job is; resident batch load
// breaks ties away from crowded candidates.
func Interference(v View, aggr float64) float64 {
	return (v.Sensitivity+v.Pressure)*(0.4+aggr) + batchLoadWeight*v.BatchLoad
}

// Candidates is the set one placement decision chooses from: how many
// candidates there are, which of them can take the job, and what placing
// it on each would cost. The scheduler answers for its LLC domains and the
// job being admitted, the fleet's cluster for its machines and the job
// being dispatched. Pick runs on the per-period path whenever a queue is
// non-empty, so all three must be pure and allocation-free.
type Candidates interface {
	Len() int
	Eligible(i int) bool
	Score(i int) float64
}

// Picker is the placement engine both levels drive: it picks a candidate
// by its policy, and holds the round-robin rotation — the only state a
// policy has. Hold it by value; the zero Picker is round-robin.
type Picker struct {
	policy Policy
	next   int
}

// NewPicker builds the policy's picker.
func NewPicker(p Policy) Picker {
	if p < 0 || int(p) >= len(policies) {
		panic(fmt.Sprintf("sched: unknown policy %d", int(p)))
	}
	return Picker{policy: p}
}

// Pick returns the policy's choice among c's eligible candidates, or -1
// when none is eligible: the next eligible one in rotation (round-robin),
// the first eligible one (packed), or the eligible one with the lowest
// score, ties to the lower index (contention-aware). A caller may still
// veto the choice, so Pick changes nothing; Commit does.
func (p *Picker) Pick(c Candidates) int {
	n := c.Len()
	if p.policy == PolicyContentionAware {
		best := -1
		var bestScore float64
		for i := 0; i < n; i++ {
			if !c.Eligible(i) {
				continue
			}
			if s := c.Score(i); best == -1 || s < bestScore {
				best, bestScore = i, s
			}
		}
		return best
	}
	start := 0
	if p.policy == PolicyRoundRobin {
		start = p.next
	}
	for i := 0; i < n; i++ {
		if k := (start + i) % n; c.Eligible(k) {
			return k
		}
	}
	return -1
}

// Commit records that a job was actually placed on candidate i, which is
// when the rotation advances.
func (p *Picker) Commit(i int) { p.next = i + 1 }

// domainSet is the scheduler's candidate set: its LLC domains, scored for
// the job being admitted.
type domainSet struct {
	views []View
	aggr  float64
}

func (ds *domainSet) Len() int            { return len(ds.views) }
func (ds *domainSet) Eligible(d int) bool { return ds.views[d].Eligible() }
func (ds *domainSet) Score(d int) float64 { return Interference(ds.views[d], ds.aggr) }
