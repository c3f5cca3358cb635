package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// Union folds src's current metric values into r, appending the extra
// label pairs kv (alternating key1, value1, ...) to every series — the
// fleet-telemetry merge path: each machine keeps its own registry with
// unprefixed series, and one export-time Union per machine builds the
// fleet-wide snapshot with a machine label distinguishing them
// (`caer_fleet_node_queue_depth{machine="3"}`).
//
// Semantics per kind: counters add, gauges overwrite (a fresh snapshot
// registry makes this exact), histograms add bucket-wise and require
// identical geometry. Union snapshots values at call time; it is an export
// path (locks, allocates) and never touches src's hot handles, so every
// observation path stays allocation-free. It panics when a series already
// exists in r under a different kind, when histogram geometry mismatches,
// or when an extra label key collides with one of src's own label keys.
func (r *Registry) Union(src *Registry, kv ...string) {
	extra := renderLabels(kv)
	src.mu.Lock()
	ms := make([]*metric, len(src.metrics))
	copy(ms, src.metrics)
	src.mu.Unlock()

	for _, m := range ms {
		labels := mergeLabelStrings(m.name, m.labels, extra)
		dst := r.registerRendered(m.name, m.help, m.kind, labels, func() *metric {
			switch m.kind {
			case KindCounter:
				return &metric{c: &Counter{self: &r.selfOps}}
			case KindGauge:
				return &metric{g: &Gauge{self: &r.selfOps}}
			case KindHistogram:
				h := NewHistogram(m.h.min, m.h.max, len(m.h.buckets))
				h.self = &r.selfOps
				return &metric{h: h}
			default:
				panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(m.kind)))
			}
		})
		switch m.kind {
		case KindCounter:
			dst.c.v.Add(m.c.Value())
		case KindGauge:
			dst.g.bits.Store(m.g.bits.Load())
		case KindHistogram:
			dst.h.Merge(m.h)
		default:
			panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(m.kind)))
		}
	}
}

// registerRendered registers (or fetches) the metric name+labels, with the
// label set already rendered: register's body after it renders a kv list,
// and the Union path's, where labels come from merging two rendered sets.
func (r *Registry) registerRendered(name, help string, kind MetricKind, labels string, mk func() *metric) *metric {
	key := name + labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %v (was %v)", key, kind, m.kind))
		}
		return m
	}
	m := mk()
	m.name, m.labels, m.help, m.kind = name, labels, help, kind
	r.metrics = append(r.metrics, m)
	r.byKey[key] = m
	r.count.Store(int64(len(r.metrics)))
	return m
}

// mergeLabelStrings combines two rendered {k="v",...} label sets into one,
// re-sorted for a stable series key. It panics on a duplicate key — a
// machine label colliding with an existing series label would emit invalid
// exposition text.
func mergeLabelStrings(name, a, b string) string {
	if a == "" {
		return b
	}
	if b == "" {
		return a
	}
	parts := append(splitLabelParts(a), splitLabelParts(b)...)
	sort.Strings(parts)
	for i := 1; i < len(parts); i++ {
		ki := parts[i][:strings.IndexByte(parts[i], '=')]
		kp := parts[i-1][:strings.IndexByte(parts[i-1], '=')]
		if ki == kp {
			panic(fmt.Sprintf("telemetry: Union label key %q collides on series %s", ki, name))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// splitLabelParts splits a rendered {k="v",k2="v2"} string into its k="v"
// parts, respecting quoted commas.
func splitLabelParts(s string) []string {
	s = strings.TrimSuffix(strings.TrimPrefix(s, "{"), "}")
	var parts []string
	start, inQuote := 0, false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\\' && inQuote:
			i++
		case s[i] == '"':
			inQuote = !inQuote
		case s[i] == ',' && !inQuote:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		parts = append(parts, s[start:])
	}
	return parts
}
