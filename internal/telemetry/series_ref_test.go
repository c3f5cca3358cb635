package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// refSeries is the dense reference store the Series log is checked
// against: each histogram period is a full row of buckets+2 uint32 cells
// (underflow, buckets, overflow), every period scans every cell, and
// every window query sums every cell of every row it covers. Counters and
// gauges are stored exactly as in Series. It registers the same
// caer_series_* families into its own registry, so a twin registry fed
// the same operations yields a byte-identical dump.
type refSeries struct {
	reg     *Registry
	cap     int
	tracks  []refTrack
	tracked int64
	samples int

	samplesTotal *Counter
	tracksGauge  *Gauge
}

type refTrack struct {
	m           *metric
	lastC       uint64
	values      []float64
	lastBuckets []uint64
	lastSum     float64
	rows        []uint32  // cap * (buckets+2) per-period deltas
	sums        []float64 // cap per-period sum deltas
}

func newRefSeries(reg *Registry, capacity int) *refSeries {
	s := &refSeries{reg: reg, cap: capacity}
	s.samplesTotal = reg.Counter("caer_series_samples_total", "per-period time-series samples taken from this registry")
	s.tracksGauge = reg.Gauge("caer_series_tracks", "metric series tracked by the time-series store")
	s.extend()
	return s
}

func (s *refSeries) extend() {
	s.reg.mu.Lock()
	ms := append([]*metric(nil), s.reg.metrics...)
	s.reg.mu.Unlock()
	for _, m := range ms[len(s.tracks):] {
		t := refTrack{m: m}
		switch m.kind {
		case KindCounter:
			t.values = make([]float64, s.cap)
			t.lastC = m.c.Value()
		case KindGauge:
			t.values = make([]float64, s.cap)
		case KindHistogram:
			w := len(m.h.buckets) + 2
			t.lastBuckets = make([]uint64, w)
			t.rows = make([]uint32, s.cap*w)
			t.sums = make([]float64, s.cap)
			t.lastBuckets[0] = m.h.under.Load()
			for i := range m.h.buckets {
				t.lastBuckets[i+1] = m.h.buckets[i].Load()
			}
			t.lastBuckets[w-1] = m.h.over.Load()
			t.lastSum = m.h.Sum()
		}
		s.tracks = append(s.tracks, t)
	}
	s.tracked = s.reg.count.Load()
	s.tracksGauge.Set(float64(len(s.tracks)))
}

func (s *refSeries) Sample() {
	if s.reg.count.Load() != s.tracked {
		s.extend()
	}
	idx := s.samples % s.cap
	for i := range s.tracks {
		t := &s.tracks[i]
		switch t.m.kind {
		case KindCounter:
			v := t.m.c.Value()
			t.values[idx] = float64(v - t.lastC)
			t.lastC = v
		case KindGauge:
			t.values[idx] = t.m.g.Value()
		case KindHistogram:
			h := t.m.h
			w := len(t.lastBuckets)
			row := t.rows[idx*w : (idx+1)*w]
			cur := make([]uint64, w)
			cur[0] = h.under.Load()
			for b := range h.buckets {
				cur[b+1] = h.buckets[b].Load()
			}
			cur[w-1] = h.over.Load()
			for c := range row {
				row[c] = uint32(cur[c] - t.lastBuckets[c])
			}
			t.lastBuckets = cur
			sum := h.Sum()
			t.sums[idx] = sum - t.lastSum
			t.lastSum = sum
		}
	}
	s.samples++
	s.samplesTotal.Inc()
}

func (s *refSeries) firstRetained() int { return max(s.samples-s.cap, 0) }

func (s *refSeries) clampWindow(end, window int) (lo, hi int) {
	end = min(end, s.samples)
	end = max(end, s.firstRetained())
	return max(end-window, s.firstRetained()), end
}

func (s *refSeries) RateAt(t TrackRef, end, window int) float64 {
	lo, hi := s.clampWindow(end, window)
	if hi <= lo {
		return 0
	}
	var sum float64
	for i := lo; i < hi; i++ {
		sum += s.tracks[t].values[i%s.cap]
	}
	return sum / float64(hi-lo)
}

// OverShareAt counts an observation as bad when its cell is the overflow
// or an in-range bucket whose lower edge is at or above bound.
func (s *refSeries) OverShareAt(t TrackRef, end, window int, bound float64) float64 {
	tr := &s.tracks[t]
	h := tr.m.h
	w := len(tr.lastBuckets)
	firstBad := len(h.buckets)
	if bound <= h.min {
		firstBad = 0
	} else if bound < h.max {
		firstBad = int((bound-h.min)/h.width + 0.9999999999)
	}
	lo, hi := s.clampWindow(end, window)
	var bad, total uint64
	for i := lo; i < hi; i++ {
		row := tr.rows[(i%s.cap)*w : (i%s.cap+1)*w]
		for b, d := range row {
			total += uint64(d)
			if b == w-1 || (b > 0 && b-1 >= firstBad) {
				bad += uint64(d)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(bad) / float64(total)
}

func (s *refSeries) WriteDump(w io.Writer) error {
	first := s.firstRetained()
	retained := s.samples - first
	d := seriesJSON{Version: 1, Capacity: s.cap, Samples: s.samples, First: first}
	for i := range s.tracks {
		tr := &s.tracks[i]
		tj := trackJSON{Name: tr.m.name, Labels: tr.m.labels, Kind: tr.m.kind.String()}
		switch tr.m.kind {
		case KindCounter, KindGauge:
			tj.Values = make([]float64, retained)
			for k := range tj.Values {
				tj.Values[k] = tr.values[(first+k)%s.cap]
			}
		case KindHistogram:
			h := tr.m.h
			tj.Min, tj.Max, tj.Buckets = h.min, h.max, len(h.buckets)
			tj.Rows = make([][]uint32, retained)
			tj.Sums = make([]float64, retained)
			width := len(tr.lastBuckets)
			for k := range tj.Rows {
				idx := (first + k) % s.cap
				for c, v := range tr.rows[idx*width : (idx+1)*width] {
					if v != 0 {
						tj.Rows[k] = append(tj.Rows[k], uint32(c), v)
					}
				}
				tj.Sums[k] = tr.sums[idx]
			}
		default:
			panic(fmt.Sprintf("reference series: unknown metric kind %d", int(tr.m.kind)))
		}
		d.Tracks = append(d.Tracks, tj)
	}
	return json.NewEncoder(w).Encode(d)
}

// seriesTwin feeds one operation stream to a Series and to the dense
// reference, each over its own registry, and compares what they answer.
type seriesTwin struct {
	regs  [2]*Registry
	live  *Series
	ref   *refSeries
	hists [2][]*Histogram
	ctrs  [2][]*Counter
	gauge [2]*Gauge
	late  int // late registrations so far, for distinct label values
}

func newSeriesTwin(capacity int) *seriesTwin {
	w := &seriesTwin{}
	for i := range w.regs {
		reg := NewRegistry()
		w.regs[i] = reg
		w.ctrs[i] = []*Counter{reg.Counter("caer_test_events_total", "events")}
		w.gauge[i] = reg.Gauge("caer_test_level", "level")
		w.hists[i] = []*Histogram{reg.Histogram("caer_test_latency", "latency", 0, 64, 8, "svc", "a")}
	}
	w.live = NewSeries(w.regs[0], capacity)
	w.ref = newRefSeries(w.regs[1], capacity)
	return w
}

// Operations a twin step applies; any byte names one (op % twinOps).
const (
	twinObserve  = iota // AddN on one histogram: under, in range, on an edge or over
	twinSample          // one period on both stores
	twinCount           // counter add
	twinGauge           // gauge set
	twinRegister        // late registration of a histogram or a counter
	twinReset           // Histogram.Reset
	twinOps
)

// step applies operation op with arguments a and b to both registries
// (and samples both stores for twinSample).
func (w *seriesTwin) step(op, a, b byte) {
	if op%twinOps == twinSample {
		w.live.Sample()
		w.ref.Sample()
		return
	}
	for i, reg := range w.regs {
		hs := w.hists[i]
		h := hs[int(a)%len(hs)]
		switch op % twinOps {
		case twinObserve:
			// Quarter-bucket steps from one bucket under min to past max:
			// underflow, every edge, mid-bucket values and overflow.
			span := 4 * (len(h.buckets) + 2)
			v := h.min - h.width + float64(int(b)%span)*h.width/4
			n := uint64(1)
			switch a % 8 {
			case 1, 2:
				n = 2 + uint64(b%5)
			case 3:
				n = 1 << 31 // two in one period wrap a 32-bit cell delta to 0
			}
			h.AddN(v, n)
		case twinCount:
			c := w.ctrs[i][int(a)%len(w.ctrs[i])]
			c.Add(uint64(b % 7))
		case twinGauge:
			w.gauge[i].Set(float64(b) / 4)
		case twinRegister:
			svc := fmt.Sprint("late", w.late)
			if a%2 == 0 {
				w.hists[i] = append(hs, reg.Histogram("caer_test_latency", "latency", float64(b%8), float64(b%8)+float64(1+a%40), 1+int(b%17), "svc", svc))
			} else {
				w.ctrs[i] = append(w.ctrs[i], reg.Counter("caer_test_events_total", "events", "svc", svc))
			}
		case twinReset:
			h.Reset()
		}
	}
	if op%twinOps == twinRegister {
		w.late++
	}
}

// check compares every counter's RateAt and every histogram's OverShareAt
// for every window end from before the retained window to past the last
// sample and every window in windows, then the WriteDump bytes, then the
// same queries and bytes on the dump's ParseSeries copy.
func (w *seriesTwin) check(t testing.TB, windows []int) {
	t.Helper()
	var live, ref bytes.Buffer
	if err := w.live.WriteDump(&live); err != nil {
		t.Fatal(err)
	}
	if err := w.ref.WriteDump(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), ref.Bytes()) {
		t.Fatalf("dump differs from the dense reference:\n--- sparse\n%s--- dense\n%s", live.String(), ref.String())
	}
	parsed, err := ParseSeries(bytes.NewReader(live.Bytes()))
	if err != nil {
		t.Fatalf("ParseSeries of own dump: %v", err)
	}
	var again bytes.Buffer
	if err := parsed.WriteDump(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), live.Bytes()) {
		t.Fatalf("dump -> parse -> dump differs:\n%s\nvs\n%s", live.String(), again.String())
	}
	first, samples := w.ref.firstRetained(), w.ref.samples
	for ti := range w.ref.tracks {
		tr := TrackRef(ti)
		m := w.ref.tracks[ti].m
		var bounds []float64
		if m.kind == KindHistogram {
			h := m.h
			bounds = []float64{h.min - 1, h.min, h.min + h.width*float64(len(h.buckets)/2),
				h.min + h.width*(float64(len(h.buckets)/2)+0.5), h.max - h.width/3, h.max}
		}
		for end := first - 1; end <= samples+1; end++ {
			for _, win := range windows {
				switch m.kind {
				case KindCounter:
					want := w.ref.RateAt(tr, end, win)
					if got := w.live.RateAt(tr, end, win); got != want {
						t.Fatalf("%s%s RateAt(end %d, window %d) = %v, dense %v", m.name, m.labels, end, win, got, want)
					}
				case KindHistogram:
					for _, bound := range bounds {
						want := w.ref.OverShareAt(tr, end, win, bound)
						if got := w.live.OverShareAt(tr, end, win, bound); got != want {
							t.Fatalf("%s%s OverShareAt(end %d, window %d, bound %v) = %v, dense %v",
								m.name, m.labels, end, win, bound, got, want)
						}
						if got := parsed.OverShareAt(tr, end, win, bound); got != want {
							t.Fatalf("parsed %s%s OverShareAt(end %d, window %d, bound %v) = %v, dense %v",
								m.name, m.labels, end, win, bound, got, want)
						}
					}
				}
			}
		}
	}
}

// allWindows lists every window from 0 to past the capacity.
func allWindows(capacity int) []int {
	ws := make([]int, capacity+3)
	for i := range ws {
		ws[i] = i
	}
	return ws
}

// TestSeriesMatchesDenseReference runs seeded random streams through the
// Series and the dense reference: AddN with n > 1 (and n = 1<<31, whose
// pairs wrap a 32-bit cell delta to zero), underflow and overflow, periods
// that hit several buckets, empty periods, resets, late registrations, and
// rings wrapped at capacities 1, 7 and 512 (several times over at the
// first two). At capacities 1 and 7 it checks after every period, every
// (end, window); at 512 it checks at the end, every end against a spread
// of windows.
func TestSeriesMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, capacity := range []int{1, 7, 512} {
		rounds, periods := 40, 4*capacity+9
		windows := allWindows(capacity)
		if capacity == 512 {
			rounds, periods = 3, 2*capacity+100
			windows = []int{0, 1, 2, 3, 5, 8, 13, 64, 100, 255, 256, 257, 400, 510, 511, 512, 513}
		}
		for round := 0; round < rounds; round++ {
			w := newSeriesTwin(capacity)
			idle := rng.Float64()
			for w.ref.samples < periods {
				op := byte(twinObserve)
				switch r := rng.Float64(); {
				case r < idle:
					op = twinSample
				case r < idle+0.01 && w.late < 3:
					op = twinRegister
				case r < idle+0.02:
					op = twinReset
				case r < idle+0.1:
					op = byte(twinCount + rng.Intn(2))
				}
				w.step(op, byte(rng.Intn(256)), byte(rng.Intn(256)))
				if op == twinSample && capacity < 512 {
					w.check(t, windows)
				}
			}
			w.check(t, windows)
		}
	}
}

// TestSeriesEdgePeriodsMatchReference scripts the two periods random
// streams almost never produce: a reset refilled to the same count before
// the next sample (which an unchanged count alone would take for an idle
// period), and a bucket that gains 2^32 observations in one period (its
// 32-bit delta wraps to zero, so the period holds a sum delta and no
// cell).
func TestSeriesEdgePeriodsMatchReference(t *testing.T) {
	scripts := map[string][]byte{
		"reset refilled": {twinObserve, 0, 9, twinObserve, 0, 9, twinSample, 0, 0,
			twinReset, 0, 0, twinObserve, 0, 30, twinObserve, 0, 31, twinSample, 0, 0, twinSample, 0, 0},
		"wrapped cell": {twinObserve, 3, 9, twinObserve, 3, 9, twinSample, 0, 0, twinSample, 0, 0},
	}
	for name, ops := range scripts {
		for _, capacity := range []int{1, 2, 7} {
			w := newSeriesTwin(capacity)
			for ; len(ops) >= 3; ops = ops[3:] {
				w.step(ops[0], ops[1], ops[2])
				if ops[0] == twinSample {
					t.Run(name, func(t *testing.T) { w.check(t, allWindows(capacity)) })
				}
			}
		}
	}
}

// FuzzSeriesSample drives random operation streams (three bytes a step:
// operation, two arguments) through the Series and the dense reference
// and compares every query and the dump bytes at the end.
func FuzzSeriesSample(f *testing.F) {
	f.Add(byte(0), []byte{twinObserve, 3, 9, twinSample, 0, 0, twinSample, 0, 0})
	f.Add(byte(2), []byte{twinRegister, 0, 5, twinObserve, 1, 40, twinSample, 0, 0, twinReset, 0, 0, twinSample, 0, 0})
	f.Add(byte(1), []byte{twinObserve, 3, 1, twinObserve, 3, 1, twinSample, 0, 0, twinCount, 0, 6, twinGauge, 0, 9, twinSample, 0, 0})
	f.Add(byte(3), []byte{twinObserve, 3, 9, twinObserve, 3, 9, twinSample, 0, 0})
	f.Add(byte(0), []byte{twinObserve, 0, 9, twinSample, 0, 0, twinReset, 0, 0, twinObserve, 0, 30, twinSample, 0, 0})
	f.Fuzz(func(t *testing.T, capSel byte, ops []byte) {
		capacities := []int{1, 2, 3, 7, 8, 64, 512}
		capacity := capacities[int(capSel)%len(capacities)]
		w := newSeriesTwin(capacity)
		for len(ops) >= 3 && w.late < 32 {
			w.step(ops[0], ops[1], ops[2])
			ops = ops[3:]
		}
		windows := allWindows(capacity)
		if capacity > 64 {
			windows = []int{0, 1, 2, 7, 64, capacity - 1, capacity, capacity + 1}
		}
		w.check(t, windows)
	})
}
