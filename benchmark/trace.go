package main

// The traced run's instrumentation, all of it outside the system: spans
// around the calls into each layer, counting generator wrappers through
// the spec.Profile.NewGen seam, and a timing scraper through
// fleet.Config.Scraper.
//
// Binds to: spec.Profile.NewGen, workload.{Generator,Access,Reset},
// fleet.{Config.Scraper,ScraperFunc}, Cluster.{Tick,Nodes}, Node.Registry,
// Registry.WritePrometheus.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"caer/internal/fleet"
	"caer/internal/spec"
	wl "caer/internal/workload"
)

// recordCap bounds the recorded reference stream (16 bytes a tuple).
const recordCap = 4 << 20

// ref is one recorded memory reference, in true simulation order.
type ref struct {
	addr  uint64
	core  uint8
	write bool
}

// segment is one scenario's references, all against one fresh memory
// hierarchy. refs is allocated whole when the scenario starts and holds the
// first n references: recording runs inside the simulator's per-instruction
// loop, which must not allocate.
type segment struct {
	cores    int
	nextCore int
	refs     []ref
	n        int
}

// spanRec is one closed span: name, interval, and the span that caused it.
type spanRec struct {
	id, parent int
	name       string
	start, end time.Duration
}

// profCount is the reference count of one wrapped profile.
type profCount struct {
	prof  spec.Profile // unwrapped
	calls uint64
}

type tracer struct {
	t0    time.Time
	repID int64
	spans []spanRec
	open  []int // stack of open span ids

	profs []*profCount
	segs  []*segment
	// segCap is how many references one segment may record. When it is not
	// zero a new segment starts whenever a latency application (footprint
	// base 0) is instantiated: runner.Run builds it first, so this marks
	// scenario boundaries inside Suite calls we cannot see into. It is zero
	// during set-up, and stays zero for the fleets: see layer_mem.go.
	segCap int

	cluster  *fleet.Cluster
	tickNs   []float64
	scrapeNs []float64
}

func newTracer(seed int64) *tracer {
	return &tracer{t0: time.Now(), repID: seed}
}

// startRecording arms the reference recorder for w's run.
func (t *tracer) startRecording(w workload) {
	if w.scenarios > 0 {
		t.segCap = recordCap / w.scenarios
	}
}

// span opens a span under the innermost open one and returns its closer.
func (t *tracer) span(name string) func() {
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, spanRec{id: id, parent: parent, name: name, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].end = time.Since(t.t0)
		t.open = t.open[:len(t.open)-1]
	}
}

// selfTimes returns, by span id, each span's duration minus the part its
// children cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.id] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// wrapProfile returns p with its NewGen wrapped so every reference is
// counted and the leading ones recorded.
func (t *tracer) wrapProfile(p spec.Profile) spec.Profile {
	pc := &profCount{prof: p}
	t.profs = append(t.profs, pc)
	inner := p.NewGen
	p.NewGen = func(base uint64, seed int64) wl.Generator {
		if base == 0 && t.segCap > 0 {
			t.segs = append(t.segs, &segment{cores: 2, refs: make([]ref, t.segCap)}) // runner machines have two cores
		}
		g := &countGen{inner: inner(base, seed), pc: pc}
		if n := len(t.segs); n > 0 {
			g.seg = t.segs[n-1]
			g.core = uint8(g.seg.nextCore % g.seg.cores)
			g.seg.nextCore++
		}
		return g
	}
	return p
}

// countGen counts and records a generator's references.
type countGen struct {
	inner wl.Generator
	pc    *profCount
	seg   *segment
	core  uint8
}

func (g *countGen) Name() string { return g.inner.Name() }

func (g *countGen) Next(r *rand.Rand) wl.Access {
	a := g.inner.Next(r)
	g.pc.calls++
	if s := g.seg; s != nil && s.n < len(s.refs) {
		s.refs[s.n] = ref{addr: a.Addr, core: g.core, write: a.Write}
		s.n++
	}
	return a
}

// Reset forwards a relaunch to the wrapped generator.
func (g *countGen) Reset() { wl.Reset(g.inner) }

// scraper is the fleet's default metric transport (each node's registry
// rendered as Prometheus text) inside a timing span.
func (t *tracer) scraper() fleet.Scraper {
	return fleet.ScraperFunc(func(machine int, w io.Writer) error {
		end := t.span("fleet.scrape")
		t0 := time.Now()
		err := t.cluster.Nodes()[machine].Registry().WritePrometheus(w)
		t.scrapeNs = append(t.scrapeNs, float64(time.Since(t0).Nanoseconds()))
		end()
		return err
	})
}

func (t *tracer) timedTick(c *fleet.Cluster) {
	t0 := time.Now()
	c.Tick()
	t.tickNs = append(t.tickNs, float64(time.Since(t0).Nanoseconds()))
}

// totalCalls sums the reference counts over every wrapped profile.
func (t *tracer) totalCalls() uint64 {
	var n uint64
	for _, pc := range t.profs {
		n += pc.calls
	}
	return n
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome-trace JSON under dir.
func (t *tracer) writeChrome(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("create trace directory: %w", err)
	}
	events := make([]chromeEvent, 0, len(t.spans))
	self := t.selfTimes()
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"id": s.id, "parent": s.parent, "rep": t.repID,
				"self_us": float64(self[s.id].Nanoseconds()) / 1e3},
		})
	}
	path := filepath.Join(dir, fmt.Sprintf("trace_%s_seed%d.json", workload, t.repID))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("create trace file: %w", err)
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events}); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close trace file: %w", err)
	}
	return path, nil
}
