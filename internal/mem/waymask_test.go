package mem

import (
	"testing"
)

func TestFullMask(t *testing.T) {
	if got := FullMask(1); got != 0x1 {
		t.Errorf("FullMask(1) = %v", got)
	}
	if got := FullMask(16); got != 0xffff {
		t.Errorf("FullMask(16) = %v", got)
	}
	if got := FullMask(64); got != ^WayMask(0) {
		t.Errorf("FullMask(64) = %v", got)
	}
	for _, ways := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FullMask(%d) did not panic", ways)
				}
			}()
			FullMask(ways)
		}()
	}
}

func TestContiguousMask(t *testing.T) {
	if got := ContiguousMask(0, 4); got != 0xf {
		t.Errorf("ContiguousMask(0,4) = %v", got)
	}
	if got := ContiguousMask(12, 16); got != 0xf000 {
		t.Errorf("ContiguousMask(12,16) = %v", got)
	}
	if got := ContiguousMask(0, 64); got != ^WayMask(0) {
		t.Errorf("ContiguousMask(0,64) = %v", got)
	}
	for _, r := range [][2]int{{-1, 4}, {0, 65}, {4, 4}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ContiguousMask(%d,%d) did not panic", r[0], r[1])
				}
			}()
			ContiguousMask(r[0], r[1])
		}()
	}
}

func TestWayMaskHasCount(t *testing.T) {
	m := WayMask(0b1010_0110)
	wantWays := []int{1, 2, 5, 7}
	if m.Count() != len(wantWays) {
		t.Fatalf("Count() = %d, want %d", m.Count(), len(wantWays))
	}
	for _, w := range wantWays {
		if !has(m, w) {
			t.Errorf("Has(%d) = false", w)
		}
	}
	if has(m, 0) || has(m, 3) {
		t.Error("Has reported a clear bit as set")
	}
}

func TestWayMaskString(t *testing.T) {
	if got := WayMask(0xf0).String(); got != "0xf0" {
		t.Errorf("String() = %q", got)
	}
}
