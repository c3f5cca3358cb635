package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPoliciesMatchGoldens pins the front door of the closed-job-set
// deployment (sched.RunJobs): each testdata/<name>.golden is the SHA-256 of
// the stdout the binary printed for the invocation before main became run —
// the decision timeline, the per-job outcomes and the service's run length
// under the contention-aware and round-robin policies (the
// cmd/caer-run/testdata convention; amd64 only, as there).
func TestPoliciesMatchGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are generated on amd64; running on %s", runtime.GOARCH)
	}
	cases := []struct{ golden, args string }{
		{"quick_ca", "-quick -policy ca"},
		{"quick_rr", "-quick -policy rr"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out, io.Discard); err != nil {
				t.Fatalf("caer-sched %s: %v", c.args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Errorf("caer-sched %s: output digest %s, golden %s (%d bytes):\n%s",
					c.args, got, strings.TrimSpace(string(want)), out.Len(), out.String())
			}
		})
	}
}

// TestBadArguments: a name the tables do not have, or a shape that cannot
// drain — a job that never completes, a machine with no core for jobs,
// cores that do not split into the domains — is a one-line error from run
// before anything runs: not an exit from inside it, not a spin toward the
// period bound, and not machine.New's panic.
func TestBadArguments(t *testing.T) {
	for args, want := range map[string]string{
		"-policy fifo":        "unknown policy",
		"-latency nope":       "unknown latency benchmark",
		"-jobs lbm,x":         "unknown job benchmark",
		"-job-instr 0":        "-job-instr must be positive",
		"-cores 1 -domains 1": "leaves none for jobs",
		"-domains 3 -cores 8": "do not divide into 3 LLC domains",
		"-domains 0":          "do not divide into 0 LLC domains",
	} {
		done := make(chan error, 1)
		go func() { done <- run(strings.Fields(args), io.Discard, io.Discard) }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) || strings.Contains(err.Error(), "\n") {
				t.Errorf("caer-sched %s: error %v, want one line containing %q", args, err, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("caer-sched %s: still running after 1s, want an immediate error", args)
		}
	}
}
