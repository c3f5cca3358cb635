package fleet

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"text/tabwriter"

	"caer/internal/telemetry"
)

// JobReport is one fleet job's lifecycle summary.
type JobReport struct {
	Index      int    // global arrival index
	Name       string // short benchmark name
	State      JobState
	Machine    int    // final machine (-1 if never dispatched)
	Arrived    int    // fleet tick of arrival
	Admitted   uint64 // node period the job reached a core (0 = never)
	DoneTick   int    // fleet tick of completion (0 = never)
	Migrations int    // cross-machine moves
}

// ServiceReport is one latency service's QoS summary.
type ServiceReport struct {
	Name     string
	Machine  int
	Core     int
	Relaunch bool
	// Requests counts completed open-loop requests (Relaunch services).
	Requests int
	// P50 and P99 are request-duration quantiles in periods (Relaunch
	// services with at least one request; 0 otherwise).
	P50, P99 float64
	// Latency is the full request-duration distribution (Relaunch services;
	// nil otherwise), shared by same-named services on one machine. Geometry
	// is fixed fleet-wide, so distributions from different machines merge.
	Latency *telemetry.Histogram `json:"-"`
	// DonePeriod is the completion period of a run-to-completion service
	// (0 while unfinished; unused for Relaunch services).
	DonePeriod uint64
}

// NodeReport is one machine's share of the fleet outcome.
type NodeReport struct {
	Machine     int
	Dispatches  int
	Completions int
}

// Report is a finished (or in-flight) fleet run's outcome.
type Report struct {
	Policy     string
	Machines   int
	Ticks      int
	Arrivals   int
	Dispatched int
	Completed  int
	Migrations int
	// Wait and Sojourn merge every machine's distribution into the
	// fleet-wide one (geometries are fixed, so Merge applies).
	Wait, Sojourn *telemetry.Histogram
	Jobs          []JobReport
	Nodes         []NodeReport
	Services      []ServiceReport
}

// Throughput is completed jobs per 1000 periods.
func (r Report) Throughput() float64 {
	if r.Ticks == 0 {
		return 0
	}
	return float64(r.Completed) / float64(r.Ticks) * 1000
}

// Report assembles the cluster's current outcome.
func (c *Cluster) Report() Report {
	r := Report{
		Policy:   c.cfg.Policy.String(),
		Machines: len(c.nodes),
		Ticks:    c.tick,
		Arrivals: len(c.jobs),

		Migrations: c.migrations,
		Wait:       telemetry.NewHistogram(0, waitHistMax, histBuckets),
		Sojourn:    telemetry.NewHistogram(0, sojournHistMax, histBuckets),
	}
	for _, j := range c.jobs {
		if j.state != JobQueued {
			r.Dispatched++
		}
		if j.state == JobFinished {
			r.Completed++
		}
		r.Jobs = append(r.Jobs, JobReport{
			Index: j.idx, Name: j.name, State: j.state, Machine: j.node,
			Arrived: j.arrived, Admitted: j.admitted, DoneTick: j.doneTick,
			Migrations: j.migrations,
		})
	}
	for _, n := range c.nodes {
		nr := NodeReport{
			Machine:     n.id,
			Dispatches:  int(n.dispatches.Value()),
			Completions: int(n.completions.Value()),
		}
		r.Nodes = append(r.Nodes, nr)
		r.Wait.Merge(n.wait)
		r.Sojourn.Merge(n.sojourn)
		lats := n.sched.LatencyReports()
		for i, s := range n.services {
			sr := ServiceReport{
				Name: s.name, Machine: n.id, Core: s.core,
				Relaunch: s.relaunch, Requests: s.requests,
			}
			if s.relaunch {
				sr.Latency = s.latency
				if s.latency.N() > 0 {
					sr.P50 = s.latency.Quantile(0.5)
					sr.P99 = s.latency.Quantile(0.99)
				}
			} else {
				sr.DonePeriod = lats[i].Done
			}
			r.Services = append(r.Services, sr)
		}
	}
	return r
}

// MergedLatency merges the request-duration distributions of every
// open-loop service named name ("" matches all) across the fleet into one
// histogram — the cluster-wide QoS distribution for that service class.
// A series that same-named services on one machine share merges once.
func (r Report) MergedLatency(name string) *telemetry.Histogram {
	merged := telemetry.NewHistogram(0, latencyHistMax, latencyHistBuckets)
	for i, s := range r.Services {
		if s.Latency == nil || (name != "" && s.Name != name) ||
			slices.ContainsFunc(r.Services[:i], func(p ServiceReport) bool { return p.Latency == s.Latency }) {
			continue
		}
		merged.Merge(s.Latency)
	}
	return merged
}

// Render writes the human-readable fleet summary caer-fleet prints.
func (r Report) Render(w io.Writer) error {
	fmt.Fprintf(w, "fleet: %d machines, policy %s, %d periods\n", r.Machines, r.Policy, r.Ticks)
	fmt.Fprintf(w, "jobs:  %d arrived, %d dispatched, %d completed (%.2f jobs/kperiod), %d migrations\n",
		r.Arrivals, r.Dispatched, r.Completed, r.Throughput(), r.Migrations)
	if r.Wait.N() > 0 {
		fmt.Fprintf(w, "wait:  p50 %.0f  p99 %.0f periods   sojourn: p50 %.0f  p99 %.0f periods\n",
			r.Wait.Quantile(0.5), r.Wait.Quantile(0.99),
			r.Sojourn.Quantile(0.5), r.Sojourn.Quantile(0.99))
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "service\tmachine\tcore\tmode\trequests\tp50\tp99")
	for _, s := range r.Services {
		if s.Relaunch {
			fmt.Fprintf(tw, "%s\tm%d\t%d\topen-loop\t%d\t%.0f\t%.0f\n",
				s.Name, s.Machine, s.Core, s.Requests, s.P50, s.P99)
		} else {
			fmt.Fprintf(tw, "%s\tm%d\t%d\tone-shot\tdone@%d\t-\t-\n",
				s.Name, s.Machine, s.Core, s.DonePeriod)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	perMachine := make([]string, 0, len(r.Nodes))
	for _, n := range r.Nodes {
		perMachine = append(perMachine, fmt.Sprintf("m%d %d/%d", n.Machine, n.Completions, n.Dispatches))
	}
	sort.Strings(perMachine)
	fmt.Fprintf(w, "per-machine completed/dispatched: %v\n", perMachine)
	return nil
}
