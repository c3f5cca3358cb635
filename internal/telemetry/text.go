package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TextMetric is one parsed sample line of a Prometheus text snapshot.
type TextMetric struct {
	Name   string
	Labels map[string]string // nil when the series has no labels; a key rendered twice keeps its last value
	Value  float64
}

// ParseText parses Prometheus text exposition format (the subset
// WritePrometheus emits: comments, blank lines, and `name{labels} value`
// samples). caer-top, an injected fleet Scraper and the CI smoke step read
// /metrics bytes through this parser, so the writer and parser round-trip
// each other. One malformed line, or one of 1 MiB or more, rejects the
// whole snapshot.
func ParseText(r io.Reader) ([]TextMetric, error) {
	var out []TextMetric
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: text line %d: %w", lineNo, err)
		}
		out = append(out, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: scan text: %w", err)
	}
	return out, nil
}

// parseSample parses one trimmed `name{k="v",...} value` line.
func parseSample(line string) (TextMetric, error) {
	var m TextMetric
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		m.Name = rest[:i]
		end := strings.LastIndexByte(rest, '}')
		if end < i {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[i+1 : end])
		if err != nil {
			return m, err
		}
		m.Labels = labels
		rest = strings.TrimSpace(rest[end+1:])
	} else {
		fields := strings.Fields(rest)
		if len(fields) != 2 {
			return m, fmt.Errorf("want `name value`, got %q", line)
		}
		m.Name, rest = fields[0], fields[1]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return m, fmt.Errorf("bad value in %q: %w", line, err)
	}
	m.Value = v
	return m, nil
}

// parseLabels parses the `k="v",k2="v2"` text between a sample's braces.
func parseLabels(s string) (map[string]string, error) {
	labels := make(map[string]string)
	for s = strings.TrimSpace(s); s != ""; {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("bad label pair near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		valEnd := -1
		for i := eq + 2; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				valEnd = i
				break
			}
		}
		if valEnd < 0 {
			return nil, fmt.Errorf("unterminated label value near %q", s)
		}
		val, err := strconv.Unquote(s[eq+1 : valEnd+1])
		if err != nil {
			return nil, fmt.Errorf("bad label value near %q: %w", s, err)
		}
		labels[key] = val
		s = strings.TrimSpace(s[valEnd+1:])
		s = strings.TrimPrefix(s, ",")
		s = strings.TrimSpace(s)
	}
	return labels, nil
}
