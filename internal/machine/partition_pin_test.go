package machine

import (
	"testing"

	"caer/internal/mem"
)

// TestFullMaskPartitionMatchesUnpartitioned is the differential pin behind
// the partition response family: giving every owner the full way mask must
// step bit-identically to an unpartitioned machine, period by period, over
// every externally observable counter — serially and on the worker pool.
// An owner holding the full mask takes the unpartitioned free-way pick and
// victim scan by construction (mem.Cache.Insert); this test holds the whole
// machine to that over a contended multi-period run. check.sh runs it under
// -race.
func TestFullMaskPartitionMatchesUnpartitioned(t *testing.T) {
	for _, workers := range []int{1, 4} {
		plain := buildDomains(t, 2, 4, 1)
		masked := buildDomains(t, 2, 4, workers)
		applyFull := func() {
			for d := 0; d < masked.Domains(); d++ {
				h := masked.DomainHierarchy(d)
				full := mem.FullMask(h.L3().Ways())
				lo, hi := masked.DomainCores(d)
				for c := lo; c < hi; c++ {
					h.SetL3OwnerMask(masked.LocalCore(c), full)
				}
			}
		}
		applyFull()
		for p := 0; p < 40; p++ {
			plain.RunPeriod()
			masked.RunPeriod()
			diffSnap(t, snap(plain), snap(masked), "full-mask workers="+string(rune('0'+workers)))
			if p == 20 {
				applyFull() // re-applying mid-run must also be a no-op
			}
		}
	}
}

// TestConfinedPartitionDiverges is the differential pin's control: an
// actually confining mask must change the interleaving (otherwise the pin
// above would pass vacuously).
func TestConfinedPartitionDiverges(t *testing.T) {
	plain := buildDomains(t, 1, 4, 1)
	confined := buildDomains(t, 1, 4, 1)
	h := confined.DomainHierarchy(0)
	h.SetL3OwnerMask(0, mem.ContiguousMask(0, 2))
	for p := 0; p < 40; p++ {
		plain.RunPeriod()
		confined.RunPeriod()
	}
	a, b := snap(plain), snap(confined)
	diverged := false
	for i := range a.llcMiss {
		if a.llcMiss[i] != b.llcMiss[i] || a.cycles[i] != b.cycles[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("confining a streaming core to 2 of 16 ways changed nothing observable")
	}
}
