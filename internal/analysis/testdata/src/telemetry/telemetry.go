// Package telemetry is a testdata stand-in for the telemetry spine: its
// hot-path handles (Counter.Inc, Gauge.Set, Histogram.Observe,
// SpanRecorder.Record) are //caer:hot roots, and its MetricKind/SpanKind
// enums are exhaustiveness-checked.
package telemetry

import "fmt"

type MetricKind int

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

type SpanKind int32

const (
	SpanProbe SpanKind = iota
	SpanDetect
	numSpanKinds
)

var _ = numSpanKinds

// Registry hands out metric handles; in the real spine its methods lock,
// allocate, and dedup, so the discipline analyzer treats them as
// registration calls.
type Registry struct {
	counter   *Counter
	gauge     *Gauge
	histogram *Histogram
}

func (r *Registry) Counter(name string) *Counter     { return r.counter }
func (r *Registry) Gauge(name string) *Gauge         { return r.gauge }
func (r *Registry) Histogram(name string) *Histogram { return r.histogram }

// NewSpanRecorder is the registration-shaped constructor the discipline
// analyzer also recognizes.
func NewSpanRecorder(capacity int) *SpanRecorder {
	return &SpanRecorder{ring: make([]Span, capacity)}
}

type Counter struct {
	v     uint64
	trail []uint64
}

// Inc is a hot root: the instrumentation the per-period loop calls must
// never allocate or log.
//
//caer:hot
func (c *Counter) Inc() {
	c.v++
	c.trail = append(c.trail, c.v) // want hotpath "append() allocates in hot path"
	fmt.Println("inc", c.v)        // want hotpath "call to fmt.Println in hot path"
}

// Add is a hot root; registering a family from inside it is exactly what
// telemetrydiscipline forbids.
//
//caer:hot
func (c *Counter) Add(reg *Registry, delta uint64) {
	c.v += delta
	hot := reg.Counter("caer_engine_ticks_total") // want telemetrydiscipline "registration Counter inside a hot-path-reachable function"
	_ = hot
}

type Gauge struct {
	bits  uint64
	names map[string]uint64
}

// Set is a hot root.
//
//caer:hot
func (g *Gauge) Set(v float64) {
	g.bits = uint64(v)
	g.names["last"] = g.bits // want hotpath "map access in hot path"
}

type Span struct {
	Start uint64
	Kind  SpanKind
}

type SpanRecorder struct {
	ring []Span
	seq  uint64
}

// Record is a hot root.
//
//caer:hot
func (r *SpanRecorder) Record(kind SpanKind, start uint64) {
	r.ring[r.seq%uint64(len(r.ring))] = Span{Start: start, Kind: kind}
	r.seq++
	snap := r.Spans() // want hotpath "call to allocating snapshot API SpanRecorder.Spans in hot path"
	_ = snap
	_ = r.ringCopy()
}

// Spans is the allocating snapshot API, banned inside hot functions: the
// call in the hot Record method above is the finding. The directive is also
// a barrier, so the walk does not enter the body and its make is not
// reported a second time.
//
//caer:allocates
func (r *SpanRecorder) Spans() []Span {
	out := make([]Span, len(r.ring))
	copy(out, r.ring)
	return out
}

// ringCopy allocates just the same but nobody marked it. Record calls it,
// so the call graph marks its body transitively hot (path:
// SpanRecorder.Record -> SpanRecorder.ringCopy).
func (r *SpanRecorder) ringCopy() []Span {
	out := make([]Span, len(r.ring)) // want hotpath "make() allocates in hot path"
	copy(out, r.ring)
	return out
}

type Histogram struct {
	buckets []uint64
}

// Observe is a hot root.
//
//caer:hot
func (h *Histogram) Observe(v float64) {
	idx := int(v)
	if idx >= len(h.buckets) {
		idx = len(h.buckets) - 1
	}
	h.buckets[idx]++
	labels := []string{"le"} // want hotpath "slice literal allocates in hot path"
	_ = labels
}

// kindName switches non-exhaustively over MetricKind.
func kindName(k MetricKind) string {
	switch k { // want enumswitch "switch over MetricKind is not exhaustive: missing KindHistogram"
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "?"
}

// spanName is exhaustive without the numSpanKinds sentinel: no finding.
func spanName(k SpanKind) string {
	switch k {
	case SpanProbe:
		return "probe"
	case SpanDetect:
		return "detect"
	default:
		return "?"
	}
}

// badSpanName misses SpanDetect.
func badSpanName(k SpanKind) string {
	switch k { // want enumswitch "switch over SpanKind is not exhaustive: missing SpanDetect"
	case SpanProbe:
		return "probe"
	default:
		return "?"
	}
}

// coldExport is not hot (no root reaches it): allocations here are fine.
func coldExport(r *SpanRecorder) string {
	var out []byte
	for _, s := range r.Spans() {
		out = append(out, []byte(fmt.Sprintf("%d;", s.Start))...)
	}
	return string(out)
}

var _ = kindName
var _ = spanName
var _ = badSpanName
var _ = coldExport
