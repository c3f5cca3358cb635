// Package nested stands for a module below the seeded one that requires
// it, as the repository benchmark does: what it uses is live.
package nested

import (
	"strings"

	"test/reach"
)

// Use calls into the seeded module, and strings.Contains beside it.
func Use() bool { return reach.UsedByNested() > 0 && strings.Contains("ab", "a") }
