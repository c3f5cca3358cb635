package experiments

import (
	"fmt"
	"io"

	"caer/internal/caer"
	"caer/internal/machine"
	"caer/internal/report"
	"caer/internal/spec"
)

// MultiApp realizes the paper's Figure 4 design vision (left half): two
// latency-sensitive applications and two batch applications on a four-core
// chip, with a CAER-M monitor under each latency app and a full CAER engine
// under each batch app, all cooperating through one communication table and
// reacting together.
//
// The experiment compares three runs of the same mix: the latency pair
// alone (co-location disallowed), native four-way co-location, and CAER.
type MultiApp struct {
	LatencyNames []string
	BatchNames   []string
	Heuristic    caer.HeuristicKind

	// Periods until BOTH latency apps finished, per mode.
	AlonePeriods, ColoPeriods, CAERPeriods uint64
	// Slowdown of the latency pair vs running without batch co-runners.
	ColoSlowdown, CAERSlowdown float64
	// Mean batch-core duty under native and CAER co-location.
	ColoBatchDuty, CAERBatchDuty float64
	// Engine decision totals (CAER run).
	CPositive, CNegative uint64
}

// multiAppBases spreads each application's footprint.
var multiAppBases = []uint64{0, 1 << 26, 1 << 27, 1 << 28}

// MultiApp runs the 2+2 experiment for the given latency pair and batch
// pair under one heuristic. Latency profiles run to completion; batch
// profiles run as endless services.
func (s *Suite) MultiApp(latency, batch [2]spec.Profile, kind caer.HeuristicKind) MultiApp {
	s.mu.Lock()
	s.defaults()
	seed := s.Seed
	cfg := s.Config
	s.mu.Unlock()

	out := MultiApp{
		LatencyNames: []string{latency[0].Name, latency[1].Name},
		BatchNames:   []string{batch[0].Name, batch[1].Name},
		Heuristic:    kind,
	}

	newLatency := func(m *machine.Machine) [2]*machine.Process {
		var ps [2]*machine.Process
		for i := range latency {
			ps[i] = latency[i].NewProcess(multiAppBases[i], seed+int64(i))
			m.Bind(i, ps[i])
		}
		return ps
	}
	bothDone := func(ps [2]*machine.Process) func() bool {
		return func() bool { return ps[0].Done() && ps[1].Done() }
	}

	// Latency pair alone.
	{
		m := machine.New(machine.Config{Cores: 4})
		ps := newLatency(m)
		for !bothDone(ps)() {
			m.RunPeriod()
		}
		out.AlonePeriods = m.Periods()
	}

	// Native four-way co-location (the batch pair are endless services).
	{
		m := machine.New(machine.Config{Cores: 4})
		ps := newLatency(m)
		var bps [2]*machine.Process
		for i := range batch {
			bps[i] = batch[i].Batch().NewProcess(multiAppBases[2+i], seed+10+int64(i))
			m.Bind(2+i, bps[i])
		}
		for !bothDone(ps)() {
			m.RunPeriod()
		}
		out.ColoPeriods = m.Periods()
		out.ColoBatchDuty = (m.Core(2).Utilization() + m.Core(3).Utilization()) / 2
	}

	// CAER co-location.
	{
		m := machine.New(machine.Config{Cores: 4})
		rt := caer.NewRuntime(m, kind, cfg)
		var ps [2]*machine.Process
		for i := range latency {
			ps[i] = latency[i].NewProcess(multiAppBases[i], seed+int64(i))
			rt.AddLatency(spec.ShortName(latency[i].Name), i, ps[i])
		}
		for i := range batch {
			rt.AddBatch(spec.ShortName(batch[i].Name), 2+i,
				batch[i].Batch().NewProcess(multiAppBases[2+i], seed+10+int64(i)))
		}
		rt.RunUntil(bothDone(ps), 10_000_000)
		out.CAERPeriods = m.Periods()
		out.CAERBatchDuty = (m.Core(2).Utilization() + m.Core(3).Utilization()) / 2
		for _, e := range rt.Engines() {
			st := e.Stats()
			out.CPositive += st.CPositive
			out.CNegative += st.CNegative
		}
	}

	out.ColoSlowdown = float64(out.ColoPeriods) / float64(out.AlonePeriods)
	out.CAERSlowdown = float64(out.CAERPeriods) / float64(out.AlonePeriods)
	return out
}

// Table returns the experiment as a table.
func (m MultiApp) Table() *report.Table {
	t := report.NewTable("configuration", "latency_pair_slowdown", "batch_duty")
	t.AddRow("latency pair alone", "1.0000", "-")
	t.AddRow("native 2+2 co-location", fmt.Sprintf("%.4f", m.ColoSlowdown), report.Percent(m.ColoBatchDuty))
	t.AddRow(fmt.Sprintf("CAER 2+2 (%s)", m.Heuristic), fmt.Sprintf("%.4f", m.CAERSlowdown), report.Percent(m.CAERBatchDuty))
	return t
}

// Render writes the experiment summary.
func (m MultiApp) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Multi-application vision (Figure 4): %s + %s vs %s + %s on 4 cores\n",
		m.LatencyNames[0], m.LatencyNames[1], m.BatchNames[0], m.BatchNames[1]); err != nil {
		return err
	}
	if err := m.Table().Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "engine verdicts: %d contention / %d clear\n", m.CPositive, m.CNegative)
	return err
}
