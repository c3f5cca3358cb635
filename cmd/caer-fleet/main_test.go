package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// childEnv makes the test binary behave as caer-fleet over its own
// arguments: -metrics-out and -trace export the process-global registry and
// span ring, which only a fresh process starts empty, so the cross-worker
// comparison runs the command as a child of the test.
const childEnv = "CAER_FLEET_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		if err := run(os.Args[1:], os.Stdout, io.Discard); err != nil {
			os.Stderr.WriteString("caer-fleet: " + err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestQuickMatchesGolden pins the fleet's front door: testdata/quick.golden
// is the SHA-256 of the stdout `caer-fleet -quick` printed before main
// became run and before the machines shared one stepper pool — throughput,
// the queueing distributions and every service's QoS (the
// cmd/caer-run/testdata convention; amd64 only, as there).
func TestQuickMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are generated on amd64; running on %s", runtime.GOARCH)
	}
	var out bytes.Buffer
	if err := run([]string{"-quick"}, &out, io.Discard); err != nil {
		t.Fatalf("caer-fleet -quick: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "quick.golden"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
		t.Errorf("caer-fleet -quick: output digest %s, golden %s (%d bytes):\n%s",
			got, strings.TrimSpace(string(want)), out.Len(), out.String())
	}
}

// TestPolicyTelemetryDrains is the front door to the policy the fleet
// benchmark workloads and the slo suite run: -policy telemetry parses, the
// header names the policy, and the fleet drains (run errors when it does
// not).
func TestPolicyTelemetryDrains(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-quick", "-policy", "telemetry"}, &out, io.Discard); err != nil {
		t.Fatalf("caer-fleet -quick -policy telemetry: %v", err)
	}
	header, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(header, "telemetry policy") {
		t.Errorf("header does not name the policy: %q", header)
	}
}

// TestWorkersByteIdentical runs `caer-fleet -quick` at -workers 1 and 4,
// each in its own process, and compares everything the command writes:
// stdout, the merged Prometheus snapshot and the shared Chrome trace.
func TestWorkersByteIdentical(t *testing.T) {
	dir := t.TempDir()
	artifacts := func(workers string) [3][]byte {
		metrics := filepath.Join(dir, "metrics_w"+workers+".prom")
		trace := filepath.Join(dir, "trace_w"+workers+".json")
		cmd := exec.Command(os.Args[0], "-quick", "-workers", workers, "-metrics-out", metrics, "-trace", trace)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("caer-fleet -quick -workers %s: %v\n%s", workers, err, stderr.String())
		}
		out := [3][]byte{stdout}
		for i, path := range []string{metrics, trace} {
			if out[i+1], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			if len(out[i+1]) == 0 {
				t.Fatalf("-workers %s wrote an empty %s", workers, filepath.Base(path))
			}
		}
		return out
	}
	w1, w4 := artifacts("1"), artifacts("4")
	for i, name := range []string{"stdout", "-metrics-out", "-trace"} {
		if !bytes.Equal(w1[i], w4[i]) {
			t.Errorf("%s differs between -workers 1 (%d bytes) and -workers 4 (%d bytes)",
				name, len(w1[i]), len(w4[i]))
		}
	}
}

// TestBadArguments: a name the tables do not have is an error from run, not
// an exit from inside it.
func TestBadArguments(t *testing.T) {
	for args, want := range map[string]string{
		"-policy fifo":    "unknown policy",
		"-curve sawtooth": "unknown curve",
		"-machines 0":     "at least one machine",
		"-sensitive nope": "unknown benchmark",
		"-jobs lbm,x":     "unknown benchmark",
	} {
		err := run(strings.Fields(args), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("caer-fleet %s: error %v, want one containing %q", args, err, want)
		}
	}
}
