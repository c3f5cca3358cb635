package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden with the digests this run computes")

// checkGolden pins a quick-scale suite artifact byte for byte: the SHA-256
// of artifact must equal the hex digest in testdata/<name>.golden. Every
// artifact pinned here is a pure function of its seed, so a digest that
// moves means a refactor changed simulated behaviour. `go test -update`
// rewrites the files after an intended change.
//
// The digests are generated on amd64. Other architectures may fuse floating
// point operations differently, so the check skips there; callers run it
// last so the rest of their test still executes.
func checkGolden(t *testing.T, name string, artifact []byte) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are generated on amd64; running on %s", runtime.GOARCH)
	}
	sum := sha256.Sum256(artifact)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatalf("create testdata: %v", err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatalf("update %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden digest (run `go test -update` to create it): %v", err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("%s: artifact digest %s, golden %s: simulated behaviour changed (%d bytes)",
			name, got, w, len(artifact))
	}
}
