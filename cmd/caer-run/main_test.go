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

	"caer/internal/telemetry"
)

// TestFoldedCommandsMatchGoldens pins the two commands folded into caer-run
// (the per-period series dumper and the suite inspector) against what the
// deleted binaries printed: each testdata/<name>.golden is the SHA-256 of
// the parent commit's stdout for the equivalent invocation — series of mcf
// alone in all four formats and of xalancbmk next to lbm, 300 periods each,
// and the full suite table (the internal/experiments/testdata convention;
// amd64 only, as there).
func TestFoldedCommandsMatchGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digests are generated on amd64; running on %s", runtime.GOARCH)
	}
	cases := []struct{ golden, args string }{
		{"series_mcf_alone_csv", "-latency mcf -mode alone -periods 300 -series csv"},
		{"series_mcf_alone_spark", "-latency mcf -mode alone -periods 300 -series spark"},
		{"series_mcf_alone_hist", "-latency mcf -mode alone -periods 300 -series hist"},
		{"series_mcf_alone_phases", "-latency mcf -mode alone -periods 300 -series phases"},
		{"series_xalancbmk_colo_csv", "-latency xalancbmk -mode colo -periods 300 -series csv"},
		{"workloads", "-workloads"},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(strings.Fields(c.args), &out, io.Discard); err != nil {
				t.Fatalf("caer-run %s: %v", c.args, err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != strings.TrimSpace(string(want)) {
				t.Errorf("caer-run %s: output digest %s, golden %s (%d bytes):\n%s",
					c.args, got, strings.TrimSpace(string(want)), out.Len(), out.String())
			}
		})
	}
}

// TestFlagModeRejections: a flag the selected invocation would not read is
// an error naming the flag and the mode, never a silent no-op.
func TestFlagModeRejections(t *testing.T) {
	cases := []struct {
		args string
		want []string // substrings of the error
	}{
		{"-mode alone -heuristic rule", []string{"-heuristic", "-mode alone"}},
		{"-mode colo -adaptive", []string{"-adaptive", "-mode colo"}},
		{"-mode alone -dvfs 2", []string{"-dvfs", "-mode alone"}},
		{"-mode colo -usage-thresh 500", []string{"-usage-thresh", "-mode colo"}},
		{"-mode alone -impact 0.1", []string{"-impact", "-mode alone"}},
		{"-mode colo -log 4", []string{"-log", "-mode colo"}},
		{"-mode alone -trace-out t.json", []string{"-trace-out", "-mode alone"}},
		{"-mode alone -heuristic bogus", []string{"-heuristic", "-mode alone"}},
		{"-series csv", []string{"-series", "-mode caer"}},
		{"-mode caer -series phases", []string{"-series", "-mode caer"}},
		{"-mode colo -series csv -batch milc", []string{"-batch", "-series"}},
		{"-mode alone -series nope", []string{"nope", "csv, spark, hist or phases"}},
		{"-periods 10", []string{"-periods", "-series or -workloads"}},
		{"-workloads -seed 3", []string{"-seed", "-workloads"}},
		{"-workloads -mode alone", []string{"-mode", "-workloads"}},
		{"-workloads -latency nope", []string{"unknown benchmark", "nope"}},
		{"-heuristic bogus", []string{"unknown heuristic", "bogus"}},
		{"-mode bogus", []string{"unknown mode", "bogus"}},
		{"-latency nope -mode alone", []string{"unknown latency benchmark", "nope"}},
		{"-batch nope -mode colo", []string{"unknown batch benchmark", "nope"}},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := run(strings.Fields(c.args), &out, io.Discard)
		if err == nil {
			t.Errorf("caer-run %s: accepted, want an error", c.args)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("caer-run %s: error %q does not mention %q", c.args, err, w)
			}
		}
		if out.Len() != 0 {
			t.Errorf("caer-run %s: rejected invocation still printed %q", c.args, out.String())
		}
	}
}

// TestAloneModeRunsOnce pins the bugfix: -mode alone used to run the
// identical alone scenario twice (once as the result, once as its own
// baseline).
func TestAloneModeRunsOnce(t *testing.T) {
	before := telemetry.RunnerRunsAlone.Value()
	var out bytes.Buffer
	if err := run(strings.Fields("-latency namd -mode alone"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.RunnerRunsAlone.Value() - before; got != 1 {
		t.Errorf("-mode alone ran %d alone scenarios, want 1", got)
	}
	if !strings.Contains(out.String(), "slowdown vs alone:        1.000x") {
		t.Errorf("alone run is not its own baseline:\n%s", out.String())
	}
}

// TestTraceOut: a CAER run's -trace-out is the span recorder's Chrome
// export (it parses, and carries the response's hold spans), and a write
// that cannot complete is an error rather than a truncated file and exit 0.
func TestTraceOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out, errOut bytes.Buffer
	if err := run([]string{"-latency", "mcf", "-mode", "caer", "-trace-out", path}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ParseChromeTrace(f)
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	kinds := make(map[string]int)
	for _, e := range events {
		kinds[e.Name]++
	}
	for _, k := range []string{"probe", "publish", "detect", "hold", "thread_name"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %q event (kinds: %v)", k, kinds)
		}
	}
	if !strings.Contains(errOut.String(), path) {
		t.Errorf("stderr does not name the written trace: %q", errOut.String())
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a short write")
	}
	err = run([]string{"-latency", "namd", "-mode", "caer", "-trace-out", "/dev/full"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "/dev/full") {
		t.Errorf("short trace write: err = %v, want one naming /dev/full", err)
	}
}

// TestRenderHist pins -series hist's rendering: one line per bucket,
// labelled by its lower edge, the fullest bucket's bar exactly barWidth
// wide and the others scaled to it.
func TestRenderHist(t *testing.T) {
	h := telemetry.NewHistogram(0, 4, 2)
	for _, v := range []float64{1, 1, 1, 1, 3} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := renderHist(&sb, h, 8); err != nil {
		t.Fatal(err)
	}
	want := "         0.0  ######## 4\n" +
		"         2.0  ##       1\n"
	if got := sb.String(); got != want {
		t.Fatalf("renderHist =\n%s\nwant\n%s", got, want)
	}
}
