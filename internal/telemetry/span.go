package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// SpanKind classifies one span of the detection pipeline.
type SpanKind int32

const (
	// SpanProbe is one CAER-M monitor probe-and-publish (one period).
	SpanProbe SpanKind = iota
	// SpanPublish is one engine own-sample publish (one period).
	SpanPublish
	// SpanDetect is one complete detection protocol, from the detector's
	// first step to its verdict (value 1 = contention, 0 = clear).
	SpanDetect
	// SpanShutter is a burst-shutter closed phase inside a detection
	// protocol: the periods the batch was halted to measure the neighbour's
	// steady miss rate.
	SpanShutter
	// SpanHold is a response hold, from entry to release or expiry
	// (value 1 = the hold paused the batch, 0 = it let it run).
	SpanHold
	// SpanDegraded is a watchdog fail-open span: neighbour samples were
	// stale past the horizon until they resumed.
	SpanDegraded
	// SpanQueued is a scheduled job's admission-queue wait.
	SpanQueued
	// SpanJob is a scheduled job's residency, admission to completion
	// (value = number of migrations).
	SpanJob
	// SpanArmed is an interrupt-mode sleep stretch: the engine skipped the
	// probe pipeline while a threshold trigger stood watch. Unlike the
	// engine-tick-clocked kinds above it is stamped in machine periods —
	// engine ticks do not advance while the engine sleeps (value 1 = the
	// stretch ended in a trigger fire, 0 = a keepalive probe woke it).
	SpanArmed
	// SpanFired marks the machine period a threshold trigger fired (value =
	// how many triggers fired that period).
	SpanFired
	// SpanAlert is one SLO alert episode, from the first pending period to
	// resolution (value = peak slow-window burn rate over the episode). The
	// slo.Engine records one per firing alert; an episode still open at
	// export time spans through the last evaluated period.
	SpanAlert
	numSpanKinds
)

// String names the span kind.
func (k SpanKind) String() string {
	switch k {
	case SpanProbe:
		return "probe"
	case SpanPublish:
		return "publish"
	case SpanDetect:
		return "detect"
	case SpanShutter:
		return "shutter"
	case SpanHold:
		return "hold"
	case SpanDegraded:
		return "degraded"
	case SpanQueued:
		return "queued"
	case SpanJob:
		return "job"
	case SpanArmed:
		return "armed"
	case SpanFired:
		return "fired"
	case SpanAlert:
		return "alert"
	default:
		return fmt.Sprintf("SpanKind(%d)", int(k))
	}
}

// Span is one recorded interval of the detection pipeline, measured in
// sampling periods (the paper's 1 ms clock). Track identifies the emitting
// lane — by convention the communication-table slot ID of the application
// the span belongs to.
type Span struct {
	Start   uint64 // first period covered
	Periods uint32 // length in periods (>= 1)
	Kind    SpanKind
	Track   int32
	Value   float64 // kind-specific payload (misses, verdict, migrations)
}

// SpanRecorder is a fixed-capacity ring of spans. Record is lock-free and
// allocation-free: a single atomic sequence claims a slot and the span is
// written in place, overwriting the oldest entry once the ring wraps
// (drop-oldest). With concurrent recorders a lapped writer may tear a slot;
// the deployment drives Record from the single-threaded period loop, and
// the export path tolerates a rare torn span (it renders as one odd
// rectangle, not a crash).
type SpanRecorder struct {
	ring []Span
	seq  atomic.Uint64
	self *atomic.Uint64

	mu     sync.Mutex
	tracks map[int32]string
}

// NewSpanRecorder returns a recorder retaining the most recent capacity
// spans. The self counter (may not be nil) receives one bump per Record —
// wire it to a registry's self-cost account.
func NewSpanRecorder(capacity int, self *atomic.Uint64) *SpanRecorder {
	if capacity <= 0 {
		panic(fmt.Sprintf("telemetry: span capacity %d must be positive", capacity))
	}
	if self == nil {
		panic("telemetry: span recorder needs a self-cost counter")
	}
	return &SpanRecorder{ring: make([]Span, capacity), self: self, tracks: make(map[int32]string)}
}

// Record appends one span, evicting the oldest when the ring is full.
func (r *SpanRecorder) Record(track int32, kind SpanKind, start uint64, periods uint32, value float64) {
	idx := r.seq.Add(1) - 1
	r.ring[idx%uint64(len(r.ring))] = Span{Start: start, Periods: periods, Kind: kind, Track: track, Value: value}
	r.self.Add(1)
}

// Total returns the lifetime span count, including evicted spans.
func (r *SpanRecorder) Total() uint64 { return r.seq.Load() }

// Dropped returns how many spans the ring has evicted.
func (r *SpanRecorder) Dropped() uint64 {
	if t := r.seq.Load(); t > uint64(len(r.ring)) {
		return t - uint64(len(r.ring))
	}
	return 0
}

// Spans returns the retained spans oldest-first. Export path: allocates.
func (r *SpanRecorder) Spans() []Span {
	total := r.seq.Load()
	n := total
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	out := make([]Span, n)
	head := total - n
	for i := uint64(0); i < n; i++ {
		out[i] = r.ring[(head+i)%uint64(len(r.ring))]
	}
	return out
}

// NameTrack attaches a human-readable lane name (application name, core)
// used by the Chrome export's thread metadata. Setup path only.
func (r *SpanRecorder) NameTrack(track int32, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracks[track] = name
}

// TrackName returns the registered lane name, or "".
func (r *SpanRecorder) TrackName(track int32) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracks[track]
}

// periodMicros converts sampling periods to Chrome trace microseconds: one
// period is the paper's 1 ms.
const periodMicros = 1000

// ChromeEvent is one Chrome trace-event (the JSON object Perfetto and
// chrome://tracing load). Only the fields this repo emits are modelled.
// Args values are numbers on "X" spans and strings on "M" metadata (e.g.
// thread_name), hence the any-typed map.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// ArgNumber returns the named numeric arg, or 0 when absent or non-numeric
// (JSON round-trips numbers as float64).
func (e ChromeEvent) ArgNumber(key string) float64 {
	v, _ := e.Args[key].(float64)
	return v
}

// chromeFile is the trace-event JSON envelope.
type chromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// WriteChromeTrace writes events as a Chrome trace-event JSON object
// ({"traceEvents": [...]}), loadable by Perfetto and chrome://tracing.
func WriteChromeTrace(w io.Writer, events []ChromeEvent) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"}); err != nil {
		return err
	}
	return bw.Flush()
}

// ParseChromeTrace reads a trace-event JSON object: one written by
// WriteChromeTrace, or any file handed to caer-doctor (events of phases
// this repo no longer emits, such as "C" counters, parse too).
func ParseChromeTrace(r io.Reader) ([]ChromeEvent, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("telemetry: parse chrome trace: %w", err)
	}
	return f.TraceEvents, nil
}

// ChromeEvents converts the retained spans into trace events: one complete
// ("X") slice per span on its track, plus thread-name metadata for named
// tracks. Export path: allocates.
//
//caer:deterministic
func (r *SpanRecorder) ChromeEvents() []ChromeEvent {
	spans := r.Spans()
	events := make([]ChromeEvent, 0, len(spans)+8)
	// Emit thread-name metadata in sorted track order: ranging the map
	// directly made the export byte-unstable run to run (Go randomizes map
	// order), which broke diffing two traces of the same run.
	r.mu.Lock()
	tracks := make([]int32, 0, len(r.tracks))
	for track := range r.tracks {
		tracks = append(tracks, track)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })
	for _, track := range tracks {
		events = append(events, ChromeEvent{
			Name: "thread_name", Phase: "M", Pid: 1, Tid: int(track),
			Args: map[string]any{"name": r.tracks[track]},
		})
	}
	r.mu.Unlock()
	for _, s := range spans {
		events = append(events, ChromeEvent{
			Name:  s.Kind.String(),
			Phase: "X",
			Ts:    float64(s.Start) * periodMicros,
			Dur:   float64(s.Periods) * periodMicros,
			Pid:   1,
			Tid:   int(s.Track),
			Args:  map[string]any{"value": s.Value},
		})
	}
	return events
}

// WriteChrome writes the retained spans as Chrome trace-event JSON.
func (r *SpanRecorder) WriteChrome(w io.Writer) error {
	return WriteChromeTrace(w, r.ChromeEvents())
}
