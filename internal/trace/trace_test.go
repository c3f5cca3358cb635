package trace

import (
	"testing"

	"caer/internal/machine"
	"caer/internal/spec"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAppendAndSeries(t *testing.T) {
	tr := New(2)
	tr.Append(0, []CoreSample{{LLCMisses: 10, Instructions: 100}, {LLCMisses: 5, Instructions: 50, Paused: true}})
	tr.Append(1, []CoreSample{{LLCMisses: 20, Instructions: 200}, {LLCMisses: 0, Instructions: 0, Paused: true}})
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	m0 := tr.MissSeries(0)
	if m0[0] != 10 || m0[1] != 20 {
		t.Errorf("MissSeries(0) = %v", m0)
	}
	i1 := tr.InstrSeries(1)
	if i1[0] != 50 || i1[1] != 0 {
		t.Errorf("InstrSeries(1) = %v", i1)
	}
	if got := tr.PausedFraction(1); got != 1 {
		t.Errorf("PausedFraction(1) = %v, want 1", got)
	}
	if got := tr.PausedFraction(0); got != 0 {
		t.Errorf("PausedFraction(0) = %v, want 0", got)
	}
}

func TestAppendWidthMismatchPanics(t *testing.T) {
	tr := New(2)
	defer func() {
		if recover() == nil {
			t.Error("mismatched record did not panic")
		}
	}()
	tr.Append(0, []CoreSample{{}})
}

func TestSeriesCoreRangePanics(t *testing.T) {
	tr := New(1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range core did not panic")
		}
	}()
	tr.MissSeries(1)
}

func TestRecorderCapturesRun(t *testing.T) {
	m := machine.New(machine.Config{Cores: 2})
	mcf, _ := spec.ByName("mcf")
	m.Bind(0, mcf.Batch().NewProcess(0, 1))
	m.Bind(1, spec.LBM().Batch().NewProcess(1<<28, 2))
	rec := NewRecorder(m)
	for i := 0; i < 30; i++ {
		m.RunPeriod()
		rec.Tick()
	}
	tr := rec.Trace()
	if tr.Len() != 30 {
		t.Fatalf("recorded %d periods, want 30", tr.Len())
	}
	var misses, instr float64
	for _, v := range tr.MissSeries(0) {
		misses += v
	}
	for _, v := range tr.InstrSeries(0) {
		instr += v
	}
	if misses == 0 || instr == 0 {
		t.Errorf("trace empty: misses=%v instr=%v", misses, instr)
	}
	if tr.Records[29].Period != 29 {
		t.Errorf("last period = %d, want 29", tr.Records[29].Period)
	}
}

func TestDetectPhasesSynthetic(t *testing.T) {
	// Two clean phases: 100 periods at ~10, then 100 at ~500.
	series := make([]float64, 200)
	for i := range series {
		if i < 100 {
			series[i] = 10
		} else {
			series[i] = 500
		}
	}
	phases := DetectPhases(series, 10, 0.5, 20)
	if len(phases) != 2 {
		t.Fatalf("detected %d phases, want 2: %+v", len(phases), phases)
	}
	if phases[0].Mean > 50 || phases[1].Mean < 400 {
		t.Errorf("phase means = %.0f, %.0f", phases[0].Mean, phases[1].Mean)
	}
	boundary := phases[0].End
	if boundary < 90 || boundary > 110 {
		t.Errorf("boundary at %d, want ~100", boundary)
	}
	// Coverage: phases tile the series.
	if phases[0].Start != 0 || phases[len(phases)-1].End != len(series) {
		t.Error("phases do not tile the series")
	}
	if phases[0].Len()+phases[1].Len() != len(series) {
		t.Error("phase lengths do not sum to series length")
	}
}

func TestDetectPhasesFlatSeries(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = 42
	}
	phases := DetectPhases(series, 10, 0.5, 5)
	if len(phases) != 1 {
		t.Errorf("flat series produced %d phases, want 1", len(phases))
	}
}

func TestDetectPhasesShortAndEmpty(t *testing.T) {
	if got := DetectPhases(nil, 5, 0.5, 1); got != nil {
		t.Errorf("empty series -> %v", got)
	}
	short := DetectPhases([]float64{1, 2, 3}, 5, 0.5, 1)
	if len(short) != 1 || short[0].Len() != 3 {
		t.Errorf("short series -> %v", short)
	}
}

func TestDetectPhasesValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("window", func() { DetectPhases([]float64{1}, 0, 0.5, 1) })
	mustPanic("rel", func() { DetectPhases([]float64{1}, 1, -1, 1) })
	mustPanic("abs", func() { DetectPhases([]float64{1}, 1, 0.5, -1) })
}

func TestDetectPhasesOnRealBenchmark(t *testing.T) {
	// mcf's miss series must show its alternating resident/pricing phases.
	m := machine.New(machine.Config{Cores: 2})
	mcf, _ := spec.ByName("mcf")
	m.Bind(0, mcf.Batch().NewProcess(0, 1))
	rec := NewRecorder(m)
	for i := 0; i < 400; i++ {
		m.RunPeriod()
		rec.Tick()
	}
	phases := DetectPhases(rec.Trace().MissSeries(0), 8, 0.8, 50)
	if len(phases) < 3 {
		t.Errorf("mcf produced %d phases over 400 periods, want several", len(phases))
	}
	// namd is flat (after the cold-start fill, which is itself a phase
	// transition): one steady phase.
	m2 := machine.New(machine.Config{Cores: 2})
	namd, _ := spec.ByName("namd")
	m2.Bind(0, namd.Batch().NewProcess(0, 1))
	for i := 0; i < 50; i++ { // skip the cold-start transient
		m2.RunPeriod()
	}
	rec2 := NewRecorder(m2) // arms its PMUs at the current counts
	for i := 0; i < 400; i++ {
		m2.RunPeriod()
		rec2.Tick()
	}
	if got := DetectPhases(rec2.Trace().MissSeries(0), 8, 0.8, 50); len(got) != 1 {
		t.Errorf("namd produced %d phases, want 1", len(got))
	}
}
