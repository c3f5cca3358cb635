package spec

import (
	"testing"

	"caer/internal/machine"
	"caer/internal/pmu"
)

func TestAllHas21Benchmarks(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("All() = %d profiles, want 21 (the paper's C/C++ SPEC2006 set)", len(all))
	}
	seen := make(map[string]bool)
	for _, p := range all {
		if seen[p.Name] {
			t.Errorf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.NewGen == nil {
			t.Errorf("%s has no generator builder", p.Name)
		}
		if p.Exec.Instructions == 0 {
			t.Errorf("%s has no instruction count", p.Name)
		}
	}
}

func TestNamesMatchesAll(t *testing.T) {
	names := Names()
	all := All()
	if len(names) != len(all) {
		t.Fatalf("Names/All length mismatch: %d vs %d", len(names), len(all))
	}
	for i := range names {
		if names[i] != all[i].Name {
			t.Errorf("Names[%d] = %q, All[%d].Name = %q", i, names[i], i, all[i].Name)
		}
	}
}

func TestByNameFullAndShort(t *testing.T) {
	p, ok := ByName("429.mcf")
	if !ok || p.Name != "429.mcf" {
		t.Fatal("ByName full name failed")
	}
	p, ok = ByName("mcf")
	if !ok || p.Name != "429.mcf" {
		t.Fatal("ByName short name failed")
	}
	if _, ok := ByName("999.nonesuch"); ok {
		t.Error("ByName found a nonexistent benchmark")
	}
}

func TestLBMIsTheAdversary(t *testing.T) {
	p := LBM()
	if p.Name != "470.lbm" || p.Class != Sensitive {
		t.Errorf("LBM() = %q/%v", p.Name, p.Class)
	}
}

func TestBatchNeverTerminates(t *testing.T) {
	b := LBM().Batch()
	if b.Exec.Instructions != 0 {
		t.Error("Batch() kept a finite instruction count")
	}
	if LBM().Exec.Instructions == 0 {
		t.Error("Batch() mutated the original profile")
	}
}

func TestByClassPartitionsAll(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Errorf("All() holds %d profiles, want 21", len(all))
	}
	for _, p := range all {
		switch p.Class {
		case Insensitive, Moderate, Sensitive:
		default:
			t.Errorf("%s is in no sensitivity class (%v)", p.Name, p.Class)
		}
	}
}

func TestSensitivityStrings(t *testing.T) {
	if Insensitive.String() != "insensitive" || Moderate.String() != "moderate" || Sensitive.String() != "sensitive" {
		t.Error("sensitivity strings wrong")
	}
	if Sensitivity(9).String() != "Sensitivity(9)" {
		t.Error("unknown sensitivity string wrong")
	}
}

func TestShortName(t *testing.T) {
	if ShortName("429.mcf") != "mcf" {
		t.Error("ShortName failed on full name")
	}
	if ShortName("mcf") != "mcf" {
		t.Error("ShortName failed on short name")
	}
}

func TestEveryProfileRunsOnTheMachine(t *testing.T) {
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := machine.New(machine.Config{Cores: 2, PeriodCycles: 20000})
			proc := p.NewProcess(0, 42)
			m.Bind(0, proc)
			for i := 0; i < 20; i++ {
				m.RunPeriod()
			}
			if proc.Retired() == 0 {
				t.Fatal("profile retired no instructions")
			}
			// Every profile must touch memory.
			if m.ReadCounter(0, pmu.EventCycles) == 0 {
				t.Fatal("no cycles consumed")
			}
		})
	}
}

// measureRetirement runs the profile for a fixed number of periods (after a
// warm-up), alone or next to an lbm adversary, and returns instructions
// retired during the measurement window.
func measureRetirement(p Profile, withAdversary bool) uint64 {
	m := machine.New(machine.Config{Cores: 2, PeriodCycles: 20000})
	proc := p.Batch().NewProcess(0, 42) // Batch(): never completes mid-window
	m.Bind(0, proc)
	if withAdversary {
		m.Bind(1, LBM().Batch().NewProcess(1<<28, 43))
	}
	for i := 0; i < 50; i++ {
		m.RunPeriod()
	}
	start := m.ReadCounter(0, pmu.EventInstrRetired)
	for i := 0; i < 300; i++ {
		m.RunPeriod()
	}
	return m.ReadCounter(0, pmu.EventInstrRetired) - start
}

func TestSensitivityClassesReflectColocationSlowdown(t *testing.T) {
	// Class sanity, the Figure 1 criterion: sensitive profiles slow down
	// substantially when co-located with lbm; insensitive profiles barely
	// notice it.
	if testing.Short() {
		t.Skip("co-location sweep is slow")
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			alone := measureRetirement(p, false)
			colo := measureRetirement(p, true)
			if alone == 0 || colo == 0 {
				t.Fatalf("no progress: alone=%d colo=%d", alone, colo)
			}
			slowdown := float64(alone) / float64(colo)
			switch p.Class {
			case Sensitive:
				if slowdown < 1.08 {
					t.Errorf("sensitive profile slowdown = %.3f, want >= 1.08", slowdown)
				}
			case Insensitive:
				if slowdown > 1.15 {
					t.Errorf("insensitive profile slowdown = %.3f, want <= 1.15", slowdown)
				}
			case Moderate:
				if slowdown < 1.01 {
					t.Errorf("moderate profile speeds up under contention: %.3f", slowdown)
				}
			}
		})
	}
}
