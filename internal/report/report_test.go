package report

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableRenderAlignment(t *testing.T) {
	tab := NewTable("bench", "slowdown")
	tab.AddRow("mcf", "1.36")
	tab.AddRow("namd", "1.02")
	if len(tab.rows) != 2 {
		t.Fatalf("Len = %d, want 2", len(tab.rows))
	}
	var sb strings.Builder
	if err := tab.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4 (header, rule, 2 rows):\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "bench") || !strings.Contains(lines[0], "slowdown") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "-----") {
		t.Errorf("rule line = %q", lines[1])
	}
	// Columns align: "slowdown" values start at the same offset.
	idx := strings.Index(lines[2], "1.36")
	if strings.Index(lines[3], "1.02") != idx {
		t.Errorf("columns not aligned:\n%s", out)
	}
}

func TestTableAddRowWidthMismatchPanics(t *testing.T) {
	tab := NewTable("a", "b")
	defer func() {
		if recover() == nil {
			t.Error("mismatched row did not panic")
		}
	}()
	tab.AddRow("only-one")
}

func TestTableWriteCSV(t *testing.T) {
	tab := NewTable("bench", "value")
	tab.AddRow("mcf", "1.5")
	tab.AddRow("with,comma", "2")
	var sb strings.Builder
	if err := tab.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "bench,value\nmcf,1.5\n\"with,comma\",2\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

func TestBarChartSingleSeries(t *testing.T) {
	var sb strings.Builder
	err := BarChart{Title: "Slowdown", Width: 10, Min: 1, Max: 2}.Render(&sb,
		[]string{"mcf", "namd"},
		Series{Name: "colo", Values: []float64{2.0, 1.0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Slowdown") {
		t.Error("title missing")
	}
	if !strings.Contains(out, strings.Repeat("#", 10)) {
		t.Errorf("full bar missing:\n%s", out)
	}
	// namd at the range minimum renders an empty bar.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "namd") && strings.Contains(line, "#") {
			t.Errorf("min-value bar not empty: %q", line)
		}
	}
}

func TestBarChartGroupedSeriesAndErrors(t *testing.T) {
	var sb strings.Builder
	err := BarChart{Width: 8}.Render(&sb,
		[]string{"a", "b"},
		Series{Name: "x", Values: []float64{1, 2}},
		Series{Name: "y", Values: []float64{2, 4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), "|"); got != 8 {
		t.Errorf("expected 8 bar delimiters (4 bars), got %d:\n%s", got, sb.String())
	}
	if err := (BarChart{}).Render(&sb, []string{"a"}); err == nil {
		t.Error("no-series chart did not error")
	}
	err = BarChart{}.Render(&sb, []string{"a"}, Series{Name: "x", Values: []float64{1, 2}})
	if err == nil {
		t.Error("length-mismatched series did not error")
	}
}

func TestBarChartAutoRangeAndClamp(t *testing.T) {
	var sb strings.Builder
	// Auto range [0, 4]; value 8 with explicit Max 4 must clamp, not panic.
	err := BarChart{Width: 4, Max: 4}.Render(&sb,
		[]string{"v"},
		Series{Name: "s", Values: []float64{8}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "####") {
		t.Errorf("clamped bar not full: %s", sb.String())
	}
}

func TestSparkline(t *testing.T) {
	if got := Sparkline(nil, 10); got != "" {
		t.Errorf("empty input -> %q", got)
	}
	if got := Sparkline([]float64{1, 2}, 0); got != "" {
		t.Errorf("zero width -> %q", got)
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7}, 8)
	if utf8.RuneCountInString(s) != 8 {
		t.Fatalf("sparkline length = %d runes, want 8: %q", utf8.RuneCountInString(s), s)
	}
	runes := []rune(s)
	if runes[0] != '▁' || runes[7] != '█' {
		t.Errorf("sparkline ends = %c..%c, want ▁..█", runes[0], runes[7])
	}
	// Monotone input stays monotone after rendering.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Errorf("sparkline not monotone: %q", s)
		}
	}
}

func TestSparklineDownsamples(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i)
	}
	s := Sparkline(vals, 20)
	if utf8.RuneCountInString(s) != 20 {
		t.Errorf("downsampled length = %d, want 20", utf8.RuneCountInString(s))
	}
}

func TestSparklineConstantSeries(t *testing.T) {
	s := Sparkline([]float64{5, 5, 5}, 3)
	if s != "▁▁▁" {
		t.Errorf("constant series = %q, want all-min", s)
	}
}

func TestFormatters(t *testing.T) {
	if got := Percent(0.583); got != "58.3%" {
		t.Errorf("Percent = %q", got)
	}
	if got := Times(1.357); got != "1.357x" {
		t.Errorf("Times = %q", got)
	}
}

// TestWriteFile: the artifact lands complete, and a write that cannot
// finish is an error naming the path instead of a truncated file.
func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.txt")
	hello := func(w io.Writer) error { _, err := io.WriteString(w, "hello\n"); return err }
	if err := WriteFile(path, hello); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "hello\n" {
		t.Errorf("file holds %q", got)
	}
	failing := errors.New("disk full")
	err := WriteFile(path, func(io.Writer) error { return failing })
	if !errors.Is(err, failing) || !strings.Contains(err.Error(), path) {
		t.Errorf("failed write: err = %v, want one wrapping the cause and naming %s", err, path)
	}
	if err := WriteFile(filepath.Join(path, "below-a-file"), hello); err == nil {
		t.Error("uncreatable path accepted")
	}
}
