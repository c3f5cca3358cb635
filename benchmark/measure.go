package main

// The measuring loop: closed loop of one client, reps back to back with
// no think time, a forced GC between reps, every rep cut into segments that
// the host-speed reference scales, medians and quartiles out.
//
// Binds to: nothing of the system under test; only runtime and syscall.

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

const (
	// minReps is the fewest measured reps a result may rest on.
	minReps = 5
	// setupSamples is how many set-up timings are behind setup_s. A set-up is
	// milliseconds at most, so many are cheap, and the median needs them.
	setupSamples = 60
	// setupSampleS is the least a set-up timing covers: a set-up shorter than
	// this (the pairs' is microseconds) is timed in back-to-back batches.
	setupSampleS  = 2e-3
	maxSetupBatch = 4096
	// warmupScale shrinks the discarded warm-up rep: it only has to grow
	// the heap and fault the code in.
	warmupScale = 4
)

// quartiles summarises samples as statistics.quantiles(n=4) does
// (exclusive method), so the README's protocol and the driver's agree.
type quartiles struct {
	Median, Q1, Q3 float64
	N              int
}

func summarize(samples []float64) quartiles {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return quartiles{}
	}
	at := func(p float64) float64 {
		// Position p*(n+1) in 1-based ranks, clamped, linearly interpolated.
		pos := p*float64(n+1) - 1
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		i := int(pos)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return quartiles{Median: at(0.5), Q1: at(0.25), Q3: at(0.75), N: n}
}

// percentile returns the p-quantile of samples by nearest rank.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// The host-speed reference. This class of host (2 shared vCPUs) changes
// speed by 10 to 25 % for minutes at a time, for every program at once:
// ten back-to-back runs of one workload, identical simulated work, spread
// 5 to 15 % (IQR over median) in raw seconds, and two different workloads'
// rep times moved together. A fixed kernel timed next to the work moves
// with them. Over eight such minutes, dividing each stretch of work by the
// kernel's time on either side of it cut the spread of a run's median from
// 13-15 % to 3-4 %; a kernel on a table larger than the host's L2 tracked
// better than one inside it, and sampling every half second better than
// once a rep. So a rep is cut into segments of about half a second at the
// boundaries its workload offers (between scenarios or blocks of ticks),
// the kernel is sampled there, and each segment's wall-clock and CPU time
// are scaled by the speed of the samples on either side. The end-to-end
// timings are therefore host seconds at the speed at which a chunk of the
// kernel takes refNominalS — the reference host when it is quiet.
//
// The kernel is the benchmark's own and frozen: xorshift-driven
// read-modify-writes over 8 MB with a data-dependent branch. It allocates
// nothing and calls nothing of the system, so no change to the system can
// move it. Raw seconds and the factor are reported as bench.raw_wall_s and
// bench.host_speed.
const (
	refTableWords = 1 << 20   // 8 MB
	refSteps      = 1_500_000 // one chunk
	refChunks     = 5         // a sample is the median chunk
	// refNominalS is one chunk on the 2-vCPU reference class (Xeon 2.1 GHz)
	// when quiet. It only fixes the scale.
	refNominalS = 0.0165
	// minSegmentS is the shortest stretch of work between two samples.
	minSegmentS = 0.4
)

// hostRef samples the host's speed. Its table is mapped outside the Go
// heap: 8 MB of ballast on the heap would double the collector's heap goal
// and so change how often the system under test is collected.
type hostRef struct {
	tbl   []byte
	steps int
}

// newHostRef makes a reference whose chunks are refSteps/scale long; scale
// is 1 outside the smoke test.
func newHostRef(scale uint64) (*hostRef, error) {
	tbl, err := syscall.Mmap(-1, 0, 8*refTableWords, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the host-speed reference's table: %w", err)
	}
	h := &hostRef{tbl: tbl, steps: refSteps / int(scale)}
	h.sample() // fault the table in
	return h, nil
}

func (h *hostRef) close() error { return syscall.Munmap(h.tbl) }

// sample times the kernel and returns the host's speed: 1 on the quiet
// reference host, below 1 when the host is slower.
func (h *hostRef) sample() float64 {
	var chunks [refChunks]float64
	for c := range chunks {
		x := uint64(88172645463325252)
		var acc uint64
		t0 := time.Now()
		for i := 0; i < h.steps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			word := h.tbl[8*(x&(refTableWords-1)):]
			v := binary.LittleEndian.Uint64(word)
			if v&1 == 0 {
				acc += v
			} else {
				acc ^= v >> 3
			}
			binary.LittleEndian.PutUint64(word, v+x)
		}
		chunks[c] = time.Since(t0).Seconds()
		sink += acc
	}
	perStep := summarize(chunks[:]).Median / float64(h.steps)
	return refNominalS / refSteps / perStep
}

// between is the speed over a stretch of time with a sample on either side.
// Time scales with the reciprocal of speed, so it is their harmonic mean.
func between(a, b float64) float64 { return 2 / (1/a + 1/b) }

// segClock times a rep in segments, each scaled by the host speed sampled
// on either side of it. The kernel's own time is outside every segment.
type segClock struct {
	ref   *hostRef
	speed float64 // the sample that opened the running segment
	t0    time.Time
	cpu0  float64

	wallS, cpuS float64 // at reference host speed
	rawWallS    float64
}

func (c *segClock) start() {
	c.speed = c.ref.sample()
	c.t0, c.cpu0 = time.Now(), cpuSeconds()
}

// due reports whether the running segment is long enough to close.
// Workloads offer every boundary they have; most are not taken.
func (c *segClock) due() bool { return time.Since(c.t0).Seconds() >= minSegmentS }

// stop closes the running segment and opens the next.
func (c *segClock) stop() {
	wall, cpu := time.Since(c.t0).Seconds(), cpuSeconds()-c.cpu0
	next := c.ref.sample()
	speed := between(c.speed, next)
	c.wallS += wall * speed
	c.cpuS += cpu * speed
	c.rawWallS += wall
	c.speed = next
	c.t0, c.cpu0 = time.Now(), cpuSeconds()
}

// repSample is one measured rep.
type repSample struct {
	wallS, cpuS         float64 // at reference host speed
	rawWallS            float64
	mallocs, allocBytes uint64
	liveHeapBytes       uint64
	out                 repOut
}

// measureRep runs one rep of w: prepare from a collected heap, then the
// fixed simulated work under wall-clock, CPU and allocation accounting.
func measureRep(w workload, e *env, ref *hostRef) repSample {
	var s repSample
	runtime.GC()
	run := w.prepare(e)
	clock := &segClock{ref: ref}
	e.clock = clock

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clock.start()
	s.out = run()
	clock.stop()
	runtime.ReadMemStats(&after)
	s.wallS, s.cpuS, s.rawWallS = clock.wallS, clock.cpuS, clock.rawWallS
	s.mallocs = after.Mallocs - before.Mallocs
	s.allocBytes = after.TotalAlloc - before.TotalAlloc

	// What a finished run retains: collect with its end state still held.
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.liveHeapBytes = after.HeapAlloc
	runtime.KeepAlive(s.out)
	s.out.keep, s.out.cluster = nil, nil // or every later rep would count this one's end state
	return s
}

// timeSetups times w's set-up setupSamples times, each from a collected
// heap, and scales the timings by the host speed sampled before and after
// them all, as a rep's segment is. What a timed set-up builds is released
// and dropped.
func timeSetups(w workload, ref *hostRef, seed int64, scale uint64) []float64 {
	timeBatch := func(n int) float64 {
		envs := make([]*env, n)
		for i := range envs {
			envs[i] = &env{seed: seed, scale: scale}
		}
		runtime.GC()
		t0 := time.Now()
		for _, e := range envs {
			w.prepare(e)
		}
		perSetup := time.Since(t0).Seconds() / float64(n)
		for _, e := range envs {
			if e.release != nil {
				e.release()
			}
		}
		return perSetup
	}
	before := ref.sample()
	batch := 1
	if first := timeBatch(1); first < setupSampleS {
		batch = int(setupSampleS/first) + 1
		if batch > maxSetupBatch {
			batch = maxSetupBatch
		}
	}
	samples := make([]float64, setupSamples)
	for i := range samples {
		samples[i] = timeBatch(batch)
	}
	speed := between(before, ref.sample())
	for i := range samples {
		samples[i] *= speed
	}
	return samples
}

// untraced is the measured outcome of a workload's untraced reps.
type untraced struct {
	reps   []repSample
	setups []float64
}

// runRounds measures the given workloads round-robin — one rep of each per
// round, so a noisy-neighbour episode lands on few reps of any one — until
// every workload has run for `seconds` and has `reps` reps.
func runRounds(ws []workload, ref *hostRef, seed int64, scale uint64, seconds float64, reps int) map[string]*untraced {
	res := map[string]*untraced{}
	spent := map[string]float64{}
	for _, w := range ws {
		res[w.name] = &untraced{}
		measureRep(w, &env{seed: seed, scale: scale * warmupScale}, ref) // warm-up, discarded
	}
	for {
		busy := false
		for _, w := range ws {
			u := res[w.name]
			if len(u.reps) >= reps && spent[w.name] >= seconds {
				continue
			}
			busy = true
			s := measureRep(w, &env{seed: seed, scale: scale}, ref)
			u.reps = append(u.reps, s)
			spent[w.name] += s.rawWallS
		}
		if !busy {
			break
		}
	}
	for _, w := range ws {
		res[w.name].setups = timeSetups(w, ref, seed, scale)
	}
	return res
}
