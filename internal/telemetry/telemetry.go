// Package telemetry is the runtime's observability spine: an online,
// always-on metric registry whose hot-path operations are lock-free and
// allocation-free, plus a fixed-capacity span recorder for the detection
// pipeline (see span.go) and live export surfaces (Prometheus-style text
// snapshots, an optional HTTP endpoint, Chrome trace-event JSON).
//
// The paper's §5 overhead analysis budgets <1% of each 1 ms sampling period
// for the whole CAER stack; the telemetry layer must fit inside that budget
// or it perturbs the very signal it reports. The discipline mirrors the
// caer-vet `hotpath` analyzer's: all registration (which allocates and
// takes locks) happens at deployment setup, returning pre-registered
// handles; the per-period path then touches only atomics. Every hot
// operation also bumps the registry's self-cost counter, so the layer
// accounts for its own overhead (caer_telemetry_ops_total).
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind classifies a registered metric.
type MetricKind int

const (
	// KindCounter is a monotonically increasing event count.
	KindCounter MetricKind = iota
	// KindGauge is a point-in-time value, overwritten each period.
	KindGauge
	// KindHistogram is a fixed-bucket distribution of observations.
	KindHistogram
)

// String names the kind in Prometheus TYPE vocabulary.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(k))
	}
}

// Counter is a monotonically increasing counter. Inc and Add are lock-free,
// allocation-free, and safe for concurrent use.
type Counter struct {
	v    atomic.Uint64
	self *atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	c.v.Add(1)
	c.self.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	c.v.Add(n)
	c.self.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a point-in-time float64 value. Set is lock-free and
// allocation-free.
type Gauge struct {
	bits atomic.Uint64
	self *atomic.Uint64
}

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
	g.self.Add(1)
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bins observations into fixed-width buckets over [min, max) with
// underflow/overflow tails; atomic counters make Observe lock-free and
// allocation-free. Registry.Histogram registers one for export and
// sampling; NewHistogram builds a private one. Readers take the counts as
// rendered buckets (EachBucket, WritePrometheus), as per-period deltas
// (Series) or as quantiles (Quantile).
type Histogram struct {
	min, max float64
	width    float64
	buckets  []atomic.Uint64
	under    atomic.Uint64
	over     atomic.Uint64
	count    atomic.Uint64
	sumBits  atomic.Uint64
	self     *atomic.Uint64
}

// unregisteredOps takes the op counts of histograms no registry owns.
var unregisteredOps atomic.Uint64

// NewHistogram returns an unregistered histogram with `buckets` equal-width
// bins over [min, max). It panics on a non-positive bucket count or an
// empty range.
func NewHistogram(min, max float64, buckets int) *Histogram {
	if buckets <= 0 || !(max > min) {
		panic("telemetry: histogram needs positive buckets over a non-empty range")
	}
	return &Histogram{
		min: min, max: max,
		width:   (max - min) / float64(buckets),
		buckets: make([]atomic.Uint64, buckets),
		self:    &unregisteredOps,
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.AddN(v, 1) }

// AddN records n samples of value v at once; n == 0 is a no-op.
func (h *Histogram) AddN(v float64, n uint64) {
	if n == 0 {
		return
	}
	switch {
	case v < h.min:
		h.under.Add(n)
	case v >= h.max:
		h.over.Add(n)
	default:
		idx := int((v - h.min) / h.width)
		if idx >= len(h.buckets) { // float edge case at the top boundary
			idx = len(h.buckets) - 1
		}
		h.buckets[idx].Add(n)
	}
	h.count.Add(n)
	h.addSum(v * float64(n))
	h.self.Add(1)
}

// addSum adds d to the running sum.
func (h *Histogram) addSum(d float64) {
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// N returns the number of observations.
func (h *Histogram) N() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the number of in-range buckets.
func (h *Histogram) Buckets() int { return len(h.buckets) }

// Quantile returns an approximation of the q-quantile (0 <= q <= 1) by
// linear interpolation within the containing bucket. Underflow samples
// count as min, overflow as max. It panics for q outside [0,1] and returns
// 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("telemetry: quantile %v out of [0,1]", q))
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := q * float64(n)
	cum := float64(h.under.Load())
	if target <= cum {
		return h.min
	}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		next := cum + float64(c)
		if target <= next && c > 0 {
			frac := (target - cum) / float64(c)
			return h.min + (float64(i)+frac)*h.width
		}
		cum = next
	}
	return h.max
}

// Merge adds src's counts and sum into h; it panics unless both have the
// same range and bucket count. Quantiles of the merge equal those of one
// histogram fed both sample streams, in any merge order.
func (h *Histogram) Merge(src *Histogram) {
	if h.min != src.min || h.max != src.max || len(h.buckets) != len(src.buckets) {
		panic(fmt.Sprintf("telemetry: merge of mismatched histograms [%v,%v)x%d vs [%v,%v)x%d",
			h.min, h.max, len(h.buckets), src.min, src.max, len(src.buckets)))
	}
	for i := range src.buckets {
		h.buckets[i].Add(src.buckets[i].Load())
	}
	h.under.Add(src.under.Load())
	h.over.Add(src.over.Load())
	h.count.Add(src.count.Load())
	h.addSum(src.Sum())
}

// Reset zeroes all counts and the sum, keeping the bucket geometry.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.under.Store(0)
	h.over.Store(0)
	h.count.Store(0)
	h.sumBits.Store(0)
}

// EachBucket calls f with every bucket's upper edge and cumulative count
// exactly as WritePrometheus renders them: the finite edges ascending, the
// underflow tail folded into the first bucket, then le = +Inf with the total
// count. A collector holding the handle reads the same pairs a scrape of the
// _bucket lines would parse back, without the text. Allocation-free.
func (h *Histogram) EachBucket(f func(le float64, cum uint64)) {
	cum := h.under.Load()
	for b := range h.buckets {
		cum += h.buckets[b].Load()
		f(h.min+float64(b+1)*h.width, cum)
	}
	f(math.Inf(1), cum+h.over.Load())
}

// metric is one registered (name, labels) series.
type metric struct {
	name   string // family name
	labels string // rendered {k="v",...}, or ""
	help   string
	kind   MetricKind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds registered metrics. Registration allocates and locks and
// must happen at deployment setup; the returned handles are the hot-path
// interface. Registering the same (name, labels) twice returns the same
// handle, so independently constructed components share series.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byKey   map[string]*metric
	selfOps atomic.Uint64
	// count mirrors len(metrics) atomically so the Series sampler can
	// detect late registrations without taking the registry lock on its
	// per-period path.
	count atomic.Int64
	// expo caches WritePrometheus's exposition table; see expositionLocked.
	expo []expoEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// SelfOps returns the number of hot-path telemetry operations performed
// against this registry's handles — the registry's own-cost account. Each
// Inc/Add/Set/Observe is one op; multiply by the benchmarked per-op cost
// (see BenchmarkCounterInc and friends) for a wall-clock overhead estimate.
func (r *Registry) SelfOps() uint64 { return r.selfOps.Load() }

// renderLabels formats k/v pairs as a stable {k="v",...} string.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	parts := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		parts = append(parts, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ",") + "}"
}

// register returns the existing metric for (name, labels) or installs a new
// one built by mk. It panics if the name is already registered with a
// different kind — one family, one kind.
func (r *Registry) register(name, help string, kind MetricKind, kv []string, mk func() *metric) *metric {
	if name == "" {
		panic("telemetry: metric needs a name")
	}
	return r.registerRendered(name, help, kind, renderLabels(kv), mk)
}

// Counter registers (or fetches) a counter. kv is an alternating
// key1, value1, key2, value2, ... label list.
func (r *Registry) Counter(name, help string, kv ...string) *Counter {
	m := r.register(name, help, KindCounter, kv, func() *metric {
		return &metric{c: &Counter{self: &r.selfOps}}
	})
	return m.c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, kv ...string) *Gauge {
	m := r.register(name, help, KindGauge, kv, func() *metric {
		return &metric{g: &Gauge{self: &r.selfOps}}
	})
	return m.g
}

// Histogram registers (or fetches) a histogram with `buckets` equal-width
// bins over [min, max).
func (r *Registry) Histogram(name, help string, min, max float64, buckets int, kv ...string) *Histogram {
	m := r.register(name, help, KindHistogram, kv, func() *metric {
		h := NewHistogram(min, max, buckets)
		h.self = &r.selfOps
		return &metric{h: h}
	})
	return m.h
}

// expoEntry is one registered series' row of the registry's exposition
// table: everything WritePrometheus emits for it that does not change
// between two scrapes — cached per metric, not per line, so a 256-bucket
// histogram costs one prefix and a shared edge list rather than 258
// rendered strings.
type expoEntry struct {
	m *metric
	// header is the family's "# HELP …\n# TYPE …\n" on the family's first
	// series, "" on the rest.
	header string
	// Histograms only: bucket is the `name_bucket{labels,le="` prefix of
	// every bucket line, les the rendered finite upper edges, shared by
	// every histogram of the same geometry.
	bucket string
	les    []string
}

// histGeometry keys the rendered bucket edges.
type histGeometry struct {
	min, max float64
	buckets  int
}

// expositionLocked returns the exposition table, sorted by (family name,
// rendered labels), rebuilding it when metrics were registered since it was
// built (register and registerRendered only ever grow r.metrics). A built
// table is never written again, so writers render from it outside the
// registry lock. Callers hold r.mu.
func (r *Registry) expositionLocked() []expoEntry {
	if len(r.expo) == len(r.metrics) {
		return r.expo
	}
	ms := make([]*metric, len(r.metrics))
	copy(ms, r.metrics)
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	e := make([]expoEntry, len(ms))
	edges := make(map[histGeometry][]string)
	for i, m := range ms {
		ent := expoEntry{m: m}
		if i == 0 || ms[i-1].name != m.name {
			ent.header = "# HELP " + m.name + " " + m.help + "\n# TYPE " + m.name + " " + m.kind.String() + "\n"
		}
		if h := m.h; m.kind == KindHistogram {
			ent.bucket = m.name + "_bucket{le=\""
			if m.labels != "" {
				ent.bucket = m.name + "_bucket" + m.labels[:len(m.labels)-1] + ",le=\""
			}
			g := histGeometry{h.min, h.max, len(h.buckets)}
			if edges[g] == nil {
				les := make([]string, len(h.buckets))
				for b := range les {
					les[b] = strconv.FormatFloat(h.min+float64(b+1)*h.width, 'g', -1, 64)
				}
				edges[g] = les
			}
			ent.les = edges[g]
		}
		e[i] = ent
	}
	r.expo = e
	return e
}

// expoBufs recycles WritePrometheus render buffers across calls and
// registries, so a fleet's nodes share one snapshot-sized buffer instead
// of each pinning its own.
var expoBufs = sync.Pool{New: func() any { return new([]byte) }}

// WritePrometheus writes every registered metric as Prometheus text
// exposition format (version 0.0.4): families sorted by name, one HELP/TYPE
// header per family, histograms expanded into cumulative _bucket/_sum/_count
// series. Export path, but a cheap one: order, headers and bucket edges come
// from a table rebuilt only after a registration, values are appended into
// a pooled buffer, and out sees one Write, issued outside the registry
// lock. Safe for concurrent use with the hot-path handles, registration and
// other WritePrometheus calls.
func (r *Registry) WritePrometheus(out io.Writer) error {
	r.mu.Lock()
	e := r.expositionLocked()
	r.mu.Unlock()

	bp := expoBufs.Get().(*[]byte)
	w := (*bp)[:0]
	for i := range e {
		ent := &e[i]
		m := ent.m
		w = append(w, ent.header...)
		switch m.kind {
		case KindCounter:
			w = appendSeries(w, m, "")
			w = strconv.AppendUint(w, m.c.Value(), 10)
			w = append(w, '\n')
		case KindGauge:
			w = appendSeries(w, m, "")
			w = strconv.AppendFloat(w, m.g.Value(), 'g', -1, 64)
			w = append(w, '\n')
		case KindHistogram:
			h := m.h
			cum := h.under.Load()
			for b := range h.buckets {
				cum += h.buckets[b].Load()
				w = append(w, ent.bucket...)
				w = append(w, ent.les[b]...)
				w = append(w, "\"} "...)
				w = strconv.AppendUint(w, cum, 10)
				w = append(w, '\n')
			}
			cum += h.over.Load()
			w = append(w, ent.bucket...)
			w = append(w, "+Inf\"} "...)
			w = strconv.AppendUint(w, cum, 10)
			w = append(w, '\n')
			w = appendSeries(w, m, "_sum")
			w = strconv.AppendFloat(w, h.Sum(), 'g', -1, 64)
			w = append(w, '\n')
			w = appendSeries(w, m, "_count")
			w = strconv.AppendUint(w, h.N(), 10)
			w = append(w, '\n')
		default:
			panic(fmt.Sprintf("telemetry: unknown metric kind %d", int(m.kind)))
		}
	}
	_, err := out.Write(w)
	*bp = w
	expoBufs.Put(bp)
	return err
}

// appendSeries appends `name+suffix+labels `, the prefix of a sample line.
func appendSeries(w []byte, m *metric, suffix string) []byte {
	w = append(w, m.name...)
	w = append(w, suffix...)
	w = append(w, m.labels...)
	return append(w, ' ')
}
