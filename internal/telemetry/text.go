package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// TextMetric is one parsed sample line of a Prometheus text snapshot. Name
// and Labels are substrings of the snapshot they were parsed from.
type TextMetric struct {
	Name string
	// Labels is the series' label set as rendered between the braces
	// (`k="v",k2="v2"`), "" when the series has none. ParseText validates
	// it; read single values through Label.
	Labels string
	Value  float64
}

// Label returns the named label value, or "". A key rendered twice reads
// as its last value.
func (m TextMetric) Label(key string) string {
	val := ""
	m.EachLabel(func(k, v string) {
		if k == key {
			val = v
		}
	})
	return val
}

// EachLabel calls fn with every label pair in rendered order — the one-pass
// form of Label for a reader that wants several keys of a sample.
func (m TextMetric) EachLabel(fn func(key, val string)) {
	for s := m.Labels; s != ""; {
		k, v, rest, err := cutLabel(s)
		if err != nil {
			return // only a hand-built TextMetric can hold an invalid set
		}
		fn(k, v)
		s = rest
	}
}

// maxTextLine bounds one snapshot line; a longer one rejects the snapshot.
const maxTextLine = 1 << 20

// ParseText parses Prometheus text exposition format (the subset
// WritePrometheus emits: comments, blank lines, and `name{labels} value`
// samples). The fleet scraper, caer-top and the CI smoke step all read
// /metrics bytes through this parser, so the writer and parser round-trip
// each other. One malformed line rejects the whole snapshot.
func ParseText(r io.Reader) ([]TextMetric, error) {
	var sb strings.Builder
	if l, ok := r.(interface{ Len() int }); ok {
		sb.Grow(l.Len())
	}
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("telemetry: read text: %w", err)
	}
	text := sb.String()
	return AppendSamples(make([]TextMetric, 0, strings.Count(text, "\n")+1), text)
}

// AppendSamples is ParseText over a snapshot already in memory, appending
// the samples to dst so a periodic scraper can reuse one slice. It
// allocates nothing for a snapshot WritePrometheus rendered: every field is
// a substring of text. On a malformed line it returns dst unextended.
func AppendSamples(dst []TextMetric, text string) ([]TextMetric, error) {
	out := dst
	for lineNo := 1; text != ""; lineNo++ {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if len(line) >= maxTextLine {
			return dst, fmt.Errorf("telemetry: text line %d: longer than %d bytes", lineNo, maxTextLine)
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		m, err := parseSample(line)
		if err != nil {
			return dst, fmt.Errorf("telemetry: text line %d: %w", lineNo, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// parseSample parses one trimmed `name{k="v",...} value` line.
func parseSample(line string) (TextMetric, error) {
	var m TextMetric
	value := ""
	if i := strings.IndexByte(line, '{'); i >= 0 {
		end := strings.LastIndexByte(line, '}')
		if end < i {
			return m, fmt.Errorf("unterminated label set in %q", line)
		}
		m.Name = line[:i]
		m.Labels = strings.TrimSpace(line[i+1 : end])
		for s := m.Labels; s != ""; {
			_, _, rest, err := cutLabel(s)
			if err != nil {
				return m, err
			}
			s = rest
		}
		value = strings.TrimSpace(line[end+1:])
	} else {
		// Exactly two whitespace-separated fields.
		i := strings.IndexFunc(line, unicode.IsSpace)
		if i < 0 {
			return m, fmt.Errorf("want `name value`, got %q", line)
		}
		m.Name = line[:i]
		value = strings.TrimSpace(line[i:])
		if strings.IndexFunc(value, unicode.IsSpace) >= 0 {
			return m, fmt.Errorf("want `name value`, got %q", line)
		}
	}
	v, err := strconv.ParseFloat(value, 64)
	if err != nil {
		return m, fmt.Errorf("bad value in %q: %w", line, err)
	}
	m.Value = v
	return m, nil
}

// graphic reports whether c is printable, non-space ASCII: the byte
// strings.TrimSpace would stop at without having to decode it.
func graphic(c byte) bool { return c-'!' <= '~'-'!' }

// cutLabel splits the first `key="value"` pair off a non-empty, trimmed
// rendered label set and returns it unquoted, with the trimmed remainder
// after the separating comma. The value is a substring of s unless it
// holds an escape or invalid UTF-8. A scrape runs it twice per label pair
// (once to validate, once under the fold's EachLabel), four times per
// histogram bucket line, so the shape WritePrometheus renders —
// `k="v",k2="v2"`, nothing to trim, nothing to unquote — takes no call but
// the search for '='.
func cutLabel(s string) (key, val, rest string, err error) {
	eq := strings.IndexByte(s, '=')
	if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
		return "", "", "", fmt.Errorf("bad label pair near %q", s)
	}
	plain := true // no escape, all ASCII: the raw bytes are the value
	end := -1
scan:
	for i := eq + 2; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			end = i
			break scan
		case c == '\\':
			plain = false
			i++
		case c >= 0x80:
			plain = false
		}
	}
	if end < 0 {
		return "", "", "", fmt.Errorf("unterminated label value near %q", s)
	}
	val = s[eq+2 : end]
	if !plain {
		if val, err = strconv.Unquote(s[eq+1 : end+1]); err != nil {
			return "", "", "", fmt.Errorf("bad label value near %q: %w", s, err)
		}
	}
	key = s[:eq]
	if eq > 0 && !graphic(s[eq-1]) {
		key = strings.TrimSpace(key)
	}
	rest = s[end+1:]
	switch {
	case rest == "":
	case len(rest) > 1 && rest[0] == ',' && graphic(rest[1]):
		rest = rest[1:]
	default:
		rest = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ","))
	}
	return key, val, rest, nil
}
