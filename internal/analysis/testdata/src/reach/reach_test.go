package reach

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 1 || (Set{}).Contains() {
		t.Fatal("fixture")
	}
}
