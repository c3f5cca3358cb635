package telemetry

import (
	"math"
	"strings"
	"testing"
)

// newFleetRegistries builds two per-machine registries shaped like the
// fleet's (same families, different values), returning them with their
// handles.
func newFleetRegistries() (r0, r1 *Registry, c0, c1 *Counter, g0, g1 *Gauge, h0, h1 *Histogram) {
	r0, r1 = NewRegistry(), NewRegistry()
	c0 = r0.Counter("caer_fleet_node_dispatches_total", "jobs dispatched to this machine")
	c1 = r1.Counter("caer_fleet_node_dispatches_total", "jobs dispatched to this machine")
	g0 = r0.Gauge("caer_fleet_node_queue_depth", "jobs waiting on this machine")
	g1 = r1.Gauge("caer_fleet_node_queue_depth", "jobs waiting on this machine")
	h0 = r0.Histogram("caer_fleet_node_sojourn_periods", "job sojourn", 0, 100, 10)
	h1 = r1.Histogram("caer_fleet_node_sojourn_periods", "job sojourn", 0, 100, 10)
	return
}

// TestUnionMergesWithMachineLabels pins the fleet merge semantics: each
// source registry's series appear in the destination with the extra
// machine label, counters summed into like-labeled series, gauges copied,
// histograms folded bucket-wise.
func TestUnionMergesWithMachineLabels(t *testing.T) {
	r0, r1, c0, c1, g0, g1, h0, h1 := newFleetRegistries()
	c0.Add(3)
	c1.Add(5)
	g0.Set(2)
	g1.Set(7)
	h0.Observe(10)
	h0.Observe(250) // overflow
	h1.Observe(10)
	h1.Observe(-1) // underflow

	merged := NewRegistry()
	merged.Union(r0, "machine", "0")
	merged.Union(r1, "machine", "1")

	mc0 := merged.Counter("caer_fleet_node_dispatches_total", "", "machine", "0")
	mc1 := merged.Counter("caer_fleet_node_dispatches_total", "", "machine", "1")
	if mc0.Value() != 3 || mc1.Value() != 5 {
		t.Fatalf("merged counters = %d/%d, want 3/5", mc0.Value(), mc1.Value())
	}
	mg1 := merged.Gauge("caer_fleet_node_queue_depth", "", "machine", "1")
	if mg1.Value() != 7 {
		t.Fatalf("merged gauge = %v, want 7", mg1.Value())
	}
	mh0 := merged.Histogram("caer_fleet_node_sojourn_periods", "", 0, 100, 10, "machine", "0")
	if mh0.N() != 2 || mh0.Sum() != 260 {
		t.Fatalf("merged histogram count=%d sum=%v, want 2, 260", mh0.N(), mh0.Sum())
	}

	// Same-label Union folds additively (a second snapshot of machine 0).
	merged.Union(r0, "machine", "0")
	if mc0.Value() != 6 {
		t.Fatalf("re-union counter = %d, want 6", mc0.Value())
	}
	mh1 := merged.Histogram("caer_fleet_node_sojourn_periods", "", 0, 100, 10, "machine", "1")
	if mh1.N() != 2 {
		t.Fatalf("machine 1 histogram count = %d, want 2", mh1.N())
	}
}

// TestUnionKeepsObservationAllocFree pins that the per-machine handles
// remain allocation-free after (and during interleaved) Union merges: the
// merge path reads the same atomics the hot path writes and never touches
// the handles themselves.
func TestUnionKeepsObservationAllocFree(t *testing.T) {
	r0, _, c0, _, g0, _, h0, _ := newFleetRegistries()
	merged := NewRegistry()
	merged.Union(r0, "machine", "0")
	if n := testing.AllocsPerRun(100, func() { c0.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v/op after Union", n)
	}
	if n := testing.AllocsPerRun(100, func() { g0.Set(3) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v/op after Union", n)
	}
	if n := testing.AllocsPerRun(100, func() { h0.Observe(12) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v/op after Union", n)
	}
	// Handles created *in* the merged registry by Union observe alloc-free
	// too (they are ordinary handles).
	mc := merged.Counter("caer_fleet_node_dispatches_total", "", "machine", "0")
	if n := testing.AllocsPerRun(100, func() { mc.Add(2) }); n != 0 {
		t.Errorf("merged Counter.Add allocates %v/op", n)
	}
}

// TestUnionSnapshotParseRoundTrip renders a merged fleet snapshot and
// parses it back with ParseText: every series must survive with its
// machine label and value intact — the contract caer-top and the CI smoke
// rely on for the fleet endpoint.
func TestUnionSnapshotParseRoundTrip(t *testing.T) {
	r0, r1, c0, c1, g0, _, h0, _ := newFleetRegistries()
	c0.Add(11)
	c1.Add(13)
	g0.Set(4.5)
	h0.Observe(42)

	merged := NewRegistry()
	merged.Union(r0, "machine", "0")
	merged.Union(r1, "machine", "1")

	var sb strings.Builder
	if err := merged.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	ms, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText over merged snapshot: %v", err)
	}
	got := map[string]float64{}
	for _, m := range ms {
		got[m.Name+"|machine="+m.Labels["machine"]+"|le="+m.Labels["le"]] = m.Value
	}
	for key, want := range map[string]float64{
		"caer_fleet_node_dispatches_total|machine=0|le=":           11,
		"caer_fleet_node_dispatches_total|machine=1|le=":           13,
		"caer_fleet_node_queue_depth|machine=0|le=":                4.5,
		"caer_fleet_node_sojourn_periods_count|machine=0|le=":      1,
		"caer_fleet_node_sojourn_periods_sum|machine=0|le=":        42,
		"caer_fleet_node_sojourn_periods_bucket|machine=0|le=+Inf": 1,
	} {
		v, ok := got[key]
		if !ok {
			t.Errorf("merged snapshot missing series %s", key)
		} else if math.Abs(v-want) > 1e-9 {
			t.Errorf("series %s = %v, want %v", key, v, want)
		}
	}
}

// TestUnionLabelCollisionPanics pins that Union refuses an extra label key
// that collides with an existing series label.
func TestUnionLabelCollisionPanics(t *testing.T) {
	src := NewRegistry()
	src.Counter("caer_fleet_node_dispatches_total", "help", "machine", "9")
	defer func() {
		if recover() == nil {
			t.Fatal("Union with colliding label key did not panic")
		}
	}()
	NewRegistry().Union(src, "machine", "0")
}

// TestUnionKindMismatchPanics pins the one-family-one-kind invariant
// across the merge boundary.
func TestUnionKindMismatchPanics(t *testing.T) {
	src := NewRegistry()
	src.Counter("caer_fleet_mixed", "as counter")
	dst := NewRegistry()
	dst.Gauge("caer_fleet_mixed", "as gauge", "machine", "0")
	defer func() {
		if recover() == nil {
			t.Fatal("Union with kind mismatch did not panic")
		}
	}()
	dst.Union(src, "machine", "0")
}
