// Package experiments regenerates every data figure of the paper's
// evaluation (Figures 1, 2, 3, 6, 7, 8, 9 and 10 — Figures 4 and 5 are
// architecture diagrams). A Suite memoizes scenario runs so that figures
// sharing the same underlying experiments (6, 7, 8, 9, 10 all reuse the
// alone / native / CAER / random runs) pay for each run once, and executes
// independent runs in parallel.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"caer/internal/caer"
	"caer/internal/runner"
	"caer/internal/spec"
)

// Suite holds the shared experiment configuration and the run cache.
type Suite struct {
	// Config is the CAER configuration (default caer.DefaultConfig).
	Config caer.Config
	// Seed drives all runs.
	Seed int64
	// Benchmarks are the latency-sensitive applications under test
	// (default: all 21 paper benchmarks).
	Benchmarks []spec.Profile
	// Batch is the adversary (default lbm, as in the paper).
	Batch spec.Profile
	// Parallelism bounds concurrent scenario runs (default NumCPU).
	Parallelism int

	mu    sync.Mutex
	cache map[runKey]*cacheEntry
	// runFn executes one scenario; nil means runner.Run. Tests replace it
	// to count and script executions.
	runFn func(runner.Scenario) runner.Result
}

type runKey struct {
	bench     string
	mode      runner.Mode
	heuristic caer.HeuristicKind
}

// cacheEntry is a singleflight slot: the goroutine that inserts it runs the
// scenario and closes done; everyone else who finds it waits on done and
// reads res. This way concurrent Result calls for the same key — routine
// under Prewarm's worker pool — execute the scenario exactly once instead
// of racing between the cache miss and the cache fill.
type cacheEntry struct {
	done chan struct{}
	res  runner.Result
}

// NewSuite returns a suite over the full paper benchmark set.
func NewSuite() *Suite { return &Suite{} }

func (s *Suite) defaults() {
	if s.Config.WindowSize == 0 {
		s.Config = caer.DefaultConfig()
	}
	if len(s.Benchmarks) == 0 {
		s.Benchmarks = spec.All()
	}
	if s.Batch.Name == "" {
		s.Batch = spec.LBM()
	}
	if s.Parallelism == 0 {
		s.Parallelism = runtime.NumCPU()
	}
	if s.cache == nil {
		s.cache = make(map[runKey]*cacheEntry)
	}
	if s.runFn == nil {
		s.runFn = runner.Run
	}
}

// Result runs (or recalls) one scenario for the given benchmark. Concurrent
// calls for the same scenario share a single execution.
func (s *Suite) Result(bench spec.Profile, mode runner.Mode, heuristic caer.HeuristicKind) runner.Result {
	s.mu.Lock()
	s.defaults()
	key := runKey{bench.Name, mode, heuristic}
	if e, ok := s.cache[key]; ok {
		s.mu.Unlock()
		<-e.done
		return e.res
	}
	e := &cacheEntry{done: make(chan struct{})}
	s.cache[key] = e
	run := s.runFn
	scenario := runner.Scenario{
		Latency:   bench,
		Batch:     s.Batch,
		Mode:      mode,
		Heuristic: heuristic,
		Config:    s.Config,
		Seed:      s.Seed,
	}
	s.mu.Unlock()

	// Close done even if the run panics, so waiters aren't stranded while
	// the panic unwinds.
	defer close(e.done)
	e.res = run(scenario)
	if !e.res.Completed {
		panic(fmt.Sprintf("experiments: %s/%v did not complete", bench.Name, mode))
	}
	return e.res
}

// modeRun identifies one scenario flavour used by the figures.
type modeRun struct {
	mode      runner.Mode
	heuristic caer.HeuristicKind
}

var (
	runAlone   = modeRun{runner.ModeAlone, 0}
	runColo    = modeRun{runner.ModeNativeColo, 0}
	runShutter = modeRun{runner.ModeCAER, caer.HeuristicShutter}
	runRule    = modeRun{runner.ModeCAER, caer.HeuristicRule}
	runRandom  = modeRun{runner.ModeCAER, caer.HeuristicRandom}
)

// Prewarm executes the given scenario flavours for every benchmark in
// parallel, filling the cache. Figures then assemble instantly.
func (s *Suite) Prewarm(runs ...modeRun) {
	s.mu.Lock()
	s.defaults()
	benchmarks := s.Benchmarks
	par := s.Parallelism
	s.mu.Unlock()

	type job struct {
		bench spec.Profile
		run   modeRun
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < par; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				s.Result(j.bench, j.run.mode, j.run.heuristic)
			}
		}()
	}
	for _, b := range benchmarks {
		for _, r := range runs {
			jobs <- job{b, r}
		}
	}
	close(jobs)
	wg.Wait()
}

// rankBySensitivity returns the suite's benchmarks ordered by descending
// native co-location slowdown (the §6.3 cross-core interference
// sensitivity ranking used by Figures 9 and 10). The adversary itself is
// excluded from the ranking when it appears among the benchmarks, since
// its sensitivity is measured against itself.
func (s *Suite) rankBySensitivity() []spec.Profile {
	s.mu.Lock()
	s.defaults()
	benchmarks := make([]spec.Profile, len(s.Benchmarks))
	copy(benchmarks, s.Benchmarks)
	batchName := s.Batch.Name
	s.mu.Unlock()

	s.Prewarm(runAlone, runColo)
	type ranked struct {
		p  spec.Profile
		sd float64
	}
	var rs []ranked
	for _, b := range benchmarks {
		if b.Name == batchName {
			continue
		}
		alone := s.Result(b, runner.ModeAlone, 0)
		colo := s.Result(b, runner.ModeNativeColo, 0)
		rs = append(rs, ranked{b, runner.Slowdown(colo, alone)})
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].sd > rs[j].sd })
	out := make([]spec.Profile, len(rs))
	for i, r := range rs {
		out[i] = r.p
	}
	return out
}
