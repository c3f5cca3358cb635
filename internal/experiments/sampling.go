package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/pmu"
	"caer/internal/report"
	"caer/internal/spec"
	"caer/internal/workload"
)

// This file is the detection-latency-vs-overhead sweep for the sampling
// modes (DESIGN.md §13): the same fixed, seeded contention trace — an idle
// latency app hit by scripted neighbour-pressure bursts beside an lbm
// batch adversary — replayed under every-period polling, the adaptive
// interval controller at several max-interval bounds, and threshold-
// interrupt mode. The gate mirrors the related mc-linux result: the
// event-driven modes must flag every contention burst the poller flags
// (equal coverage) at measurably fewer probes (lower overhead).

// burstSchedule is the scripted pressure trace: at each onset a burst adds
// Rate synthetic LLC misses per period on the latency core for Length
// periods. Onsets must be sorted and spaced at least Length apart.
type burstSchedule struct {
	Onsets []uint64
	Length uint64
	Rate   uint64
}

// extra returns the cumulative synthetic misses the schedule has injected
// by the given machine period. Pure function of the period, so replaying a
// trace is deterministic regardless of how often counters are read.
func (b burstSchedule) extra(period uint64) uint64 {
	var total uint64
	for _, o := range b.Onsets {
		if period <= o {
			break
		}
		e := period - o
		if e > b.Length {
			e = b.Length
		}
		total += e * b.Rate
	}
	return total
}

// burstSource interposes the schedule on the machine's PMU: the latency
// core's LLC-miss counter reads the machine's own count plus the scripted
// pressure. Reads are side-effect free, so it is trivially Peek-safe.
type burstSource struct {
	m     *machine.Machine
	core  int
	sched burstSchedule
}

func (s *burstSource) ReadCounter(core int, ev pmu.Event) uint64 {
	v := s.m.ReadCounter(core, ev)
	if core == s.core && ev == pmu.EventLLCMisses {
		v += s.sched.extra(s.m.Periods())
	}
	return v
}

// SamplingPoint is one swept configuration's outcome on the shared trace.
type SamplingPoint struct {
	// Mode is the sampling mode's name; MaxInterval is the widest probe
	// interval the mode was allowed (1 for polling).
	Mode        string
	MaxInterval int
	// Probes / Skipped partition the run's periods; probes are the
	// sampling overhead the event-driven modes exist to shed.
	Probes  uint64
	Skipped uint64
	// Keepalives and Fires are interrupt-mode detail: staleness-bounding
	// probes taken mid-sleep, and threshold trigger fires.
	Keepalives uint64
	Fires      uint64
	// Flagged counts bursts detected (a contention verdict inside the
	// burst's attribution span); FalseFlags counts verdicts before any
	// burst began.
	Flagged    int
	FalseFlags int
	// MeanLatency / MaxLatency are detection latencies in periods from
	// burst onset to the first contention verdict, over flagged bursts.
	MeanLatency float64
	MaxLatency  uint64
}

// SamplingReport is the full sweep over one seeded trace.
type SamplingReport struct {
	Seed    int64
	Quick   bool
	Bursts  int
	Length  uint64
	Rate    uint64
	Periods int
	Points  []SamplingPoint
}

// The sweep's trace and runtime shape. The watchdog horizon is widened
// past the largest swept interval (Validate rejects a probe interval that
// could outwait the watchdog), and the burst rate sits far above
// UsageThresh so a single probe of a burst is an unambiguous verdict.
const (
	samplingWatchdog   = 160
	samplingBurstRate  = 5000
	samplingFirstOnset = 100
)

// samplingTrace builds the fixed trace: quick keeps the sweep inside a
// -short test budget; full is the caer-bench artifact.
func samplingTrace(quick bool) (burstSchedule, int) {
	bursts, length, gap := 12, uint64(60), uint64(440)
	if quick {
		bursts, length, gap = 6, 40, 260
	}
	sched := burstSchedule{Length: length, Rate: samplingBurstRate}
	for j := 0; j < bursts; j++ {
		sched.Onsets = append(sched.Onsets, samplingFirstOnset+uint64(j)*(length+gap))
	}
	last := sched.Onsets[bursts-1]
	return sched, int(last + length + gap)
}

// samplingSweep is the swept mode grid.
type samplingSweep struct {
	mode caer.SamplingMode
	max  int
}

func samplingSweepGrid() []samplingSweep {
	return []samplingSweep{
		{caer.SamplingPolling, 1},
		{caer.SamplingAdaptive, 4},
		{caer.SamplingAdaptive, 16},
		{caer.SamplingAdaptive, 64},
		{caer.SamplingInterrupt, 16},
	}
}

// SamplingSuite replays the seeded trace under every swept configuration.
func SamplingSuite(seed int64, quick bool) SamplingReport {
	sched, periods := samplingTrace(quick)
	out := SamplingReport{
		Seed: seed, Quick: quick,
		Bursts: len(sched.Onsets), Length: sched.Length, Rate: sched.Rate,
		Periods: periods,
	}
	for _, sw := range samplingSweepGrid() {
		out.Points = append(out.Points, runSamplingPoint(sw, sched, periods, seed))
	}
	return out
}

func runSamplingPoint(sw samplingSweep, sched burstSchedule, periods int, seed int64) SamplingPoint {
	m := machine.New(machine.Config{Cores: 2})
	src := &burstSource{m: m, core: 0, sched: sched}

	cfg := caer.DefaultConfig()
	cfg.WatchdogPeriods = samplingWatchdog
	cfg.Sampling = sw.mode
	cfg.MaxProbeInterval = sw.max

	rt := caer.NewRuntime(m, caer.HeuristicRule, cfg, caer.WithSource(src))
	// The latency app's own working set fits in cache: its miss floor is
	// ~0 after warm-up, so the trace's pressure is the only signal.
	rt.AddLatency("idle", 0, machine.NewProcess("idle",
		machine.ExecProfile{MemFraction: 0.05, BaseCPI: 1},
		workload.NewStream(0, 4096, 64, 0), seed))
	rt.AddBatch("lbm", 1, spec.LBM().Batch().NewProcess(1<<28, seed+1))

	var flags []uint64
	var seen uint64
	for p := 0; p < periods; p++ {
		rt.Step()
		if c := rt.Engines()[0].Stats().CPositive; c > seen {
			seen = c
			flags = append(flags, m.Periods())
		}
	}

	st := rt.SamplingStats()
	pt := SamplingPoint{
		Mode:        st.Mode.String(),
		MaxInterval: sw.max,
		Probes:      st.ProbePeriods,
		Skipped:     st.SkippedPeriods,
		Keepalives:  st.Keepalives,
		Fires:       st.TriggerFires,
	}
	// Attribute each verdict to the burst whose span (onset up to the next
	// onset) contains it; verdicts before the first onset are false flags.
	var totalLat uint64
	for j, onset := range sched.Onsets {
		end := uint64(periods) + 1
		if j+1 < len(sched.Onsets) {
			end = sched.Onsets[j+1]
		}
		for _, f := range flags {
			if f > onset && f <= end {
				lat := f - onset
				totalLat += lat
				if lat > pt.MaxLatency {
					pt.MaxLatency = lat
				}
				pt.Flagged++
				break
			}
		}
	}
	for _, f := range flags {
		if f <= sched.Onsets[0] {
			pt.FalseFlags++
		}
	}
	if pt.Flagged > 0 {
		pt.MeanLatency = float64(totalLat) / float64(pt.Flagged)
	}
	return pt
}

// Check enforces the sweep's gate: every swept mode must flag every burst
// with no false flags, and every event-driven point must spend strictly
// fewer probes than the polling baseline.
func (r SamplingReport) Check() error {
	if len(r.Points) == 0 {
		return fmt.Errorf("sampling sweep produced no points")
	}
	base := r.Points[0]
	if base.Mode != caer.SamplingPolling.String() {
		return fmt.Errorf("sweep baseline is %s, want polling", base.Mode)
	}
	for _, p := range r.Points {
		if p.Flagged != r.Bursts {
			return fmt.Errorf("%s/max=%d flagged %d of %d bursts", p.Mode, p.MaxInterval, p.Flagged, r.Bursts)
		}
		if p.FalseFlags != 0 {
			return fmt.Errorf("%s/max=%d raised %d false flags", p.Mode, p.MaxInterval, p.FalseFlags)
		}
		if p.Mode != base.Mode && p.Probes >= base.Probes {
			return fmt.Errorf("%s/max=%d spent %d probes, not fewer than polling's %d",
				p.Mode, p.MaxInterval, p.Probes, base.Probes)
		}
	}
	return nil
}

// Table renders the sweep as a comparison table.
//
//caer:deterministic
func (r SamplingReport) Table() *report.Table {
	t := report.NewTable("mode", "max_int", "probes", "skipped", "keepalive",
		"fires", "flagged", "false", "mean_lat", "max_lat")
	for _, p := range r.Points {
		t.AddRow(p.Mode,
			fmt.Sprintf("%d", p.MaxInterval),
			fmt.Sprintf("%d", p.Probes),
			fmt.Sprintf("%d", p.Skipped),
			fmt.Sprintf("%d", p.Keepalives),
			fmt.Sprintf("%d", p.Fires),
			fmt.Sprintf("%d/%d", p.Flagged, r.Bursts),
			fmt.Sprintf("%d", p.FalseFlags),
			fmt.Sprintf("%.1f", p.MeanLatency),
			fmt.Sprintf("%d", p.MaxLatency))
	}
	return t
}

// Render writes the sweep summary.
func (r SamplingReport) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"Sampling sweep (DESIGN.md §13): %d bursts of %d periods at %d misses/period over %d periods, seed %d\n",
		r.Bursts, r.Length, r.Rate, r.Periods, r.Seed); err != nil {
		return err
	}
	return r.Table().Render(w)
}

// Holds is the line printed once Check passes.
func (r SamplingReport) Holds() string {
	return fmt.Sprintf("sampling gate holds: every mode flagged %d/%d bursts; event-driven modes probed less than polling",
		r.Bursts, r.Bursts)
}
