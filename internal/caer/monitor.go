package caer

import (
	"caer/internal/comm"
	"caer/internal/pmu"
	"caer/internal/telemetry"
)

// Monitor is the lightweight CAER-M virtual layer that lies beneath a
// latency-sensitive application (paper §3.2, the "thin" layers of
// Figure 4). It never modifies its application; its only job is to probe
// the application's PMU each sampling period and publish the LLC-miss
// sample to the communication table for the engines to consume.
type Monitor struct {
	pmu    *pmu.PMU
	slot   *comm.Slot
	down   bool
	misses uint64 // raw delta of the last probe
	// track/period drive the telemetry probe spans: the monitor's lane is
	// its slot ID (re-homed by Pipeline.SetLanes for fleet runs), and period counts
	// its own ticks (down ticks included) so the lane stays aligned with
	// the engines', which tick every period.
	spans    *telemetry.SpanRecorder
	laneName string
	track    int32
	period   uint64
}

// NewMonitor binds a PMU view to a latency-sensitive table slot. It panics
// on a mis-wired deployment.
func NewMonitor(p *pmu.PMU, slot *comm.Slot) *Monitor {
	if p == nil {
		panic("caer: monitor needs a PMU")
	}
	if slot == nil || slot.Role() != comm.RoleLatency {
		panic("caer: monitor's slot must be latency-sensitive")
	}
	m := &Monitor{pmu: p, slot: slot, track: int32(slot.ID()),
		spans: telemetry.DefaultSpans, laneName: "latency/" + slot.Name()}
	m.spans.NameTrack(m.track, m.laneName)
	return m
}

// Slot returns the monitor's table slot.
func (m *Monitor) Slot() *comm.Slot { return m.slot }

// PMU returns the monitor's counter view, for events beyond the LLC misses
// the monitor itself reads.
func (m *Monitor) PMU() *pmu.PMU { return m.pmu }

// Misses returns the raw LLC-miss delta the last probe read.
func (m *Monitor) Misses() uint64 { return m.misses }

// SetDown simulates a monitor crash (down=true) or restart (down=false).
// A down monitor stops publishing entirely — its slot's window freezes and
// its staleness grows, which is the failure the engines' watchdogs detect.
// The hardware counter keeps being probed through the outage, so the first
// sample after a restart covers one probe span, not the whole gap.
func (m *Monitor) SetDown(down bool) { m.down = down }

// TickSpan performs one probe covering elapsed machine periods (>= 1; more
// than 1 when the adaptive/interrupt sampling modes skipped probes):
// read-and-restart the LLC-miss counter and publish the delta, normalized
// to misses per period so the slot window — and every consumer of it
// (engine detectors, sched.Classifier) — stays in the per-period units the
// thresholds are calibrated for. A crashed monitor reads but publishes
// nothing.
func (m *Monitor) TickSpan(elapsed uint64) {
	if elapsed == 0 {
		elapsed = 1
	}
	m.period++
	m.misses = m.pmu.ReadDelta(pmu.EventLLCMisses)
	if m.down {
		return
	}
	v := float64(m.misses) / float64(elapsed)
	m.slot.Publish(v)
	m.spans.Record(m.track, telemetry.SpanProbe, m.period-1, 1, v)
}
