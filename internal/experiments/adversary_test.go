package experiments

import (
	"strings"
	"testing"

	"caer/internal/caer"
	"caer/internal/report"
	"caer/internal/spec"
)

func TestAdversarySweepSimilarResults(t *testing.T) {
	s := smallSuite(t)
	latency := s.Benchmarks // shrunken mcf, astar, namd

	shrink := func(name string, n uint64) spec.Profile {
		p, ok := spec.ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		p.Exec.Instructions = n
		return p
	}
	adversaries := []spec.Profile{
		shrink("lbm", 300_000),
		shrink("libquantum", 300_000),
		shrink("milc", 300_000),
	}

	a := s.AdversarySweep(latency, adversaries, caer.HeuristicRule)
	if len(a.Adversaries) != 3 || len(a.ColoMean) != 3 || len(a.CAERMean) != 3 {
		t.Fatalf("sweep shape wrong: %+v", a)
	}
	for i, adv := range a.Adversaries {
		// Every heavy adversary causes contention, and CAER reduces it —
		// the paper's "very similar results" claim.
		if a.ColoMean[i] <= 1.02 {
			t.Errorf("%s: mean colo slowdown %.3f, want contention", adv, a.ColoMean[i])
		}
		if a.CAERMean[i] >= a.ColoMean[i] {
			t.Errorf("%s: CAER mean %.3f not below colo mean %.3f", adv, a.CAERMean[i], a.ColoMean[i])
		}
	}
	// "Very similar": the native penalty ordering across adversaries stays
	// within a small band (all are heavy cache users).
	lo, hi := a.ColoMean[0], a.ColoMean[0]
	for _, v := range a.ColoMean {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi/lo > 1.5 {
		t.Errorf("adversaries disagree too much: colo means %v", a.ColoMean)
	}
	var sb strings.Builder
	if err := a.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Adversary sweep") {
		t.Error("render missing heading")
	}
	if rows := tableRows(t, a.Table()); rows != 3 {
		t.Errorf("table rows = %d", rows)
	}
}

// tableRows counts tab's data rows: its rendering less the header and rule.
func tableRows(t *testing.T, tab *report.Table) int {
	t.Helper()
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return strings.Count(sb.String(), "\n") - 2
}
