package telemetry_test

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"caer/internal/caer"
	"caer/internal/fleet"
	"caer/internal/sched"
	"caer/internal/spec"
	"caer/internal/telemetry"
)

// nodeCluster builds the registry shape the scrape path exists for: a
// fleet node with an open-loop service, the SLO engine and the series
// store armed — about 340 samples and 25 KB a snapshot, 259 of the samples
// the service's 256-bucket latency histogram.
func nodeCluster(tb testing.TB) *fleet.Cluster {
	tb.Helper()
	prof := func(name string, instr uint64) spec.Profile {
		p, ok := spec.ByName(name)
		if !ok {
			tb.Fatalf("unknown profile %s", name)
		}
		p.Exec.Instructions = instr
		return p
	}
	return fleet.New(fleet.Config{
		Machines: []fleet.MachineSpec{
			{Cores: 4, Domains: 2, Services: []fleet.Service{{Profile: prof("mcf", 40_000), Core: 0, Relaunch: true}}},
			{Cores: 4, Domains: 2, Services: []fleet.Service{{Profile: prof("namd", 40_000), Core: 0, Relaunch: true}}},
		},
		Sched: sched.Config{
			Policy: sched.PolicyContentionAware, Heuristic: caer.HeuristicRule,
			Caer: caer.DefaultConfig(), AgingBound: 200,
		},
		Policy: fleet.PolicyTelemetry,
		Traffic: fleet.Traffic{
			Curve: fleet.CurveConstant, Rate: 0.2, Horizon: 400,
			Mix: []spec.Profile{prof("povray", 30_000)},
		},
		SLO:        fleet.SLOConfig{LatencyQuantile: 0.99, LatencyBound: 2048, DegradedBudget: 0.25},
		Seed:       3,
		MaxPeriods: 20_000,
	})
}

// nodeSnapshot runs the cluster for ticks periods and renders node 0.
func nodeSnapshot(tb testing.TB, ticks int) (*telemetry.Registry, []byte) {
	tb.Helper()
	c := nodeCluster(tb)
	for i := 0; i < ticks; i++ {
		c.Tick()
	}
	reg := c.Nodes()[0].Registry()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		tb.Fatalf("WritePrometheus: %v", err)
	}
	return reg, buf.Bytes()
}

// TestFleetNodeSnapshotRoundTrip renders the registry the scrape path
// exists for at several points of a run, with requests completing and
// alerts evaluating in between, and parses it back: every sample line
// becomes one parsed sample, the full plane is there, and each series'
// le="+Inf" bucket equals its _count.
func TestFleetNodeSnapshotRoundTrip(t *testing.T) {
	// series keys a sample by family and labels, le aside.
	series := func(family string, labels map[string]string) string {
		l := maps.Clone(labels)
		delete(l, "le")
		return family + fmt.Sprint(l)
	}
	c := nodeCluster(t)
	for round := 0; round < 6; round++ {
		for i := 0; i < 50; i++ {
			c.Tick()
		}
		for _, n := range c.Nodes() {
			var buf bytes.Buffer
			if err := n.Registry().WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Count(buf.String(), "\n") - 2*strings.Count(buf.String(), "# HELP ")
			ms, err := telemetry.ParseText(&buf)
			if err != nil {
				t.Fatalf("tick %d: node snapshot does not parse: %v", c.Ticks(), err)
			}
			if len(ms) != lines || len(ms) < 300 {
				t.Fatalf("tick %d: %d sample lines parsed into %d samples, want all of the full plane (>= 300)", c.Ticks(), lines, len(ms))
			}
			inf := map[string]float64{}
			for _, m := range ms {
				if m.Labels["le"] == "+Inf" {
					inf[series(strings.TrimSuffix(m.Name, "_bucket"), m.Labels)] = m.Value
				}
			}
			counts := 0
			for _, m := range ms {
				if family, ok := strings.CutSuffix(m.Name, "_count"); ok {
					counts++
					if got, ok := inf[series(family, m.Labels)]; !ok || got != m.Value {
						t.Fatalf("tick %d: %s%v = %v, its +Inf bucket %v", c.Ticks(), m.Name, m.Labels, m.Value, got)
					}
				}
			}
			if counts == 0 {
				t.Fatalf("tick %d: node snapshot renders no histogram", c.Ticks())
			}
		}
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	reg, snap := nodeSnapshot(b, 200)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseText(b *testing.B) {
	_, snap := nodeSnapshot(b, 200)
	samples := 0
	b.ReportAllocs()
	b.SetBytes(int64(len(snap)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := telemetry.ParseText(bytes.NewReader(snap))
		if err != nil {
			b.Fatal(err)
		}
		samples = len(ms)
	}
	b.ReportMetric(float64(samples), "samples")
	b.ReportMetric(float64(strings.Count(string(snap), "_bucket{")), "bucket-lines")
}
