// Package report renders evaluation results as aligned text tables,
// horizontal ASCII bar charts (the terminal equivalent of the paper's bar
// figures), per-period sparklines (for the Figure 3 phase plots), and CSV
// for external plotting.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// Table is a simple aligned text table.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; it panics if the width differs from the header.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.header) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.header)))
	}
	t.rows = append(t.rows, cells)
}

// Render writes the table with padded columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.header); err != nil {
		return err
	}
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(rule); err != nil {
		return err
	}
	for _, row := range t.rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// WriteFile creates path and fills it through write. A failed write or a
// failed Close (the short write of a full disk surfaces there) is an error
// naming the path, so no command leaves a truncated artifact behind and
// exits 0.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// Series is one named data series across common labels.
type Series struct {
	Name   string
	Values []float64
}

// BarChart renders grouped horizontal bars, one label per group with one
// bar per series — the text rendering of the paper's grouped-bar figures.
type BarChart struct {
	Title string
	// Width is the maximum bar length in characters (default 50).
	Width int
	// Min and Max fix the value range; when both are zero the range is
	// [0, max(values)]. Values are clamped into the range.
	Min, Max float64
	// Format renders a value label (default "%.3f").
	Format string
}

// Render writes the chart for the given group labels and series. Every
// series must have len(labels) values.
func (b BarChart) Render(w io.Writer, labels []string, series ...Series) error {
	if len(series) == 0 {
		return fmt.Errorf("report: bar chart needs at least one series")
	}
	for _, s := range series {
		if len(s.Values) != len(labels) {
			return fmt.Errorf("report: series %q has %d values for %d labels", s.Name, len(s.Values), len(labels))
		}
	}
	width := b.Width
	if width == 0 {
		width = 50
	}
	format := b.Format
	if format == "" {
		format = "%.3f"
	}
	lo, hi := b.Min, b.Max
	if lo == 0 && hi == 0 {
		for _, s := range series {
			for _, v := range s.Values {
				if v > hi {
					hi = v
				}
			}
		}
	}
	if hi <= lo {
		hi = lo + 1
	}
	labelWidth, nameWidth := 0, 0
	for _, l := range labels {
		if len(l) > labelWidth {
			labelWidth = len(l)
		}
	}
	for _, s := range series {
		if len(s.Name) > nameWidth {
			nameWidth = len(s.Name)
		}
	}
	if b.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", b.Title); err != nil {
			return err
		}
	}
	for i, label := range labels {
		for si, s := range series {
			v := s.Values[i]
			clamped := math.Min(math.Max(v, lo), hi)
			n := int(math.Round((clamped - lo) / (hi - lo) * float64(width)))
			head := label
			if si > 0 {
				head = ""
			}
			if _, err := fmt.Fprintf(w, "%-*s  %-*s |%-*s| "+format+"\n",
				labelWidth, head, nameWidth, s.Name, width, strings.Repeat("#", n), v); err != nil {
				return err
			}
		}
		if len(series) > 1 && i < len(labels)-1 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// sparkLevels are the eight block characters used by Sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as a unicode block sparkline, downsampling (by
// bucket means) to at most width characters. An empty input yields "".
func Sparkline(values []float64, width int) string {
	if len(values) == 0 || width <= 0 {
		return ""
	}
	// Downsample into width buckets.
	buckets := values
	if len(values) > width {
		buckets = make([]float64, width)
		for i := 0; i < width; i++ {
			lo := i * len(values) / width
			hi := (i + 1) * len(values) / width
			if hi == lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range values[lo:hi] {
				sum += v
			}
			buckets[i] = sum / float64(hi-lo)
		}
	}
	minV, maxV := buckets[0], buckets[0]
	for _, v := range buckets {
		minV = math.Min(minV, v)
		maxV = math.Max(maxV, v)
	}
	var sb strings.Builder
	for _, v := range buckets {
		idx := 0
		if maxV > minV {
			idx = int((v - minV) / (maxV - minV) * float64(len(sparkLevels)-1))
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

// Percent formats a fraction as a percentage string ("58.3%").
func Percent(frac float64) string { return fmt.Sprintf("%.1f%%", frac*100) }

// Times formats a ratio as a multiplier string ("1.36x").
func Times(ratio float64) string { return fmt.Sprintf("%.3fx", ratio) }
