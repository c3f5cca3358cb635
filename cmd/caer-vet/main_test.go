package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"caer/internal/analysis"
)

// TestDriverSeededViolations runs the driver over the seeded-violation
// testdata module and requires a non-zero exit with findings from every
// analyzer.
func TestDriverSeededViolations(t *testing.T) {
	td := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	var out, errOut strings.Builder
	code := run([]string{"-C", td, "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit = %d over seeded violations, want 1 (stderr: %s)", code, errOut.String())
	}
	for _, name := range analysis.AnalyzerNames() {
		if !strings.Contains(out.String(), "["+name+"]") {
			t.Errorf("driver output missing findings from %s:\n%s", name, out.String())
		}
	}
}

// TestDriverRealTreeClean requires a zero exit over the shipped tree, run
// as CI runs it: with directive hygiene on.
func TestDriverRealTreeClean(t *testing.T) {
	var out, errOut strings.Builder
	code := run([]string{"-C", filepath.Join("..", ".."), "-unused-suppressions"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d over the real tree, want 0\nstdout: %s\nstderr: %s",
			code, out.String(), errOut.String())
	}
	if out.String() != "" {
		t.Errorf("clean run printed findings:\n%s", out.String())
	}
}

// TestDriverList checks the -list inventory: every analyzer and every word
// of the directive vocabulary.
func TestDriverList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	for _, name := range analysis.AnalyzerNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s", name)
		}
	}
	for _, d := range analysis.Directives() {
		if !strings.Contains(out.String(), d.Syntax) {
			t.Errorf("-list output missing directive %s", d.Syntax)
		}
	}
}

// TestDriverJSON checks the machine-readable output: well-formed JSON,
// every analyzer represented, exit code still 1 on findings.
func TestDriverJSON(t *testing.T) {
	td := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	var out, errOut strings.Builder
	code := run([]string{"-C", td, "-json", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("-json exit = %d over seeded violations, want 1 (stderr: %s)", code, errOut.String())
	}
	var rep struct {
		Count    int `json:"count"`
		Findings []struct {
			File     string   `json:"file"`
			Line     int      `json:"line"`
			Analyzer string   `json:"analyzer"`
			Message  string   `json:"message"`
			Path     []string `json:"path"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if rep.Count != len(rep.Findings) || rep.Count == 0 {
		t.Fatalf("count = %d with %d findings", rep.Count, len(rep.Findings))
	}
	seen := make(map[string]bool)
	pathed := false
	for _, f := range rep.Findings {
		seen[f.Analyzer] = true
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if len(f.Path) > 1 {
			pathed = true
		}
	}
	for _, name := range analysis.AnalyzerNames() {
		if !seen[name] {
			t.Errorf("-json output missing findings from %s", name)
		}
	}
	if !pathed {
		t.Errorf("no finding carried a multi-hop call path")
	}
}

// TestDriverAnalyzerSubset checks -analyzer runs only the named checks.
func TestDriverAnalyzerSubset(t *testing.T) {
	td := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	var out, errOut strings.Builder
	code := run([]string{"-C", td, "-analyzer", "enumswitch", "./..."}, &out, &errOut)
	if code != 1 {
		t.Fatalf("-analyzer enumswitch exit = %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.Contains(line, "[enumswitch]") {
			t.Errorf("subset run leaked a non-enumswitch finding: %s", line)
		}
	}
	if code := run([]string{"-analyzer", "nosuch"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2", code)
	}
}

// TestDriverUnusedSuppressions checks the hygiene flag is off by default
// and reported when enabled.
func TestDriverUnusedSuppressions(t *testing.T) {
	td := filepath.Join("..", "..", "internal", "analysis", "testdata", "src")
	var out, errOut strings.Builder
	run([]string{"-C", td, "./hygiene"}, &out, &errOut)
	if strings.Contains(out.String(), "unused suppression") {
		t.Errorf("unused suppression reported without the flag:\n%s", out.String())
	}
	out.Reset()
	errOut.Reset()
	run([]string{"-C", td, "-unused-suppressions", "./hygiene"}, &out, &errOut)
	if !strings.Contains(out.String(), "unused suppression") {
		t.Errorf("-unused-suppressions reported nothing over the hygiene fixture:\n%s", out.String())
	}
}

// TestDriverBadDir checks the error exit code.
func TestDriverBadDir(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-C", filepath.Join("..", "..", "no-such-dir")}, &out, &errOut); code != 2 {
		t.Fatalf("exit = %d for missing directory, want 2", code)
	}
}
