package main

import (
	"strings"
	"testing"
)

func ids(items []item) string {
	var out []string
	for _, it := range items {
		out = append(out, it.id)
	}
	return strings.Join(out, ",")
}

// TestSelectItems pins the -fig/-ablation id resolution: table order,
// "all", the empty list, and — the regression — an id the table does not
// have is an error naming the valid set instead of a silent no-op.
func TestSelectItems(t *testing.T) {
	for _, c := range []struct {
		list  string
		table []item
		want  string
	}{
		{"all", figures, "1,2,3,6,7,8,9,10"},
		{"", figures, ""},
		{"10, 6,6", figures, "6,10"},
		{"7,all", figures, "1,2,3,6,7,8,9,10"},
		{"all", ablations, "partition,response,tuning,adversary,multiapp"},
		{"tuning,partition", ablations, "partition,tuning"},
	} {
		got, err := selectItems(c.list, c.table)
		if err != nil || ids(got) != c.want {
			t.Errorf("selectItems(%q) = %q, %v; want %q", c.list, ids(got), err, c.want)
		}
	}
	for _, c := range []struct {
		list  string
		table []item
		bad   string
	}{
		{"4", figures, `"4"`}, // Figures 4 and 5 are architecture diagrams
		{"6,bogus", figures, `"bogus"`},
		{"foo", ablations, `"foo"`},
		{"6,", figures, `""`},
	} {
		got, err := selectItems(c.list, c.table)
		if err == nil {
			t.Errorf("selectItems(%q) = %q, want an error", c.list, ids(got))
			continue
		}
		valid := "valid: all, " + strings.ReplaceAll(ids(c.table), ",", ", ")
		for _, want := range []string{c.bad, valid} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("selectItems(%q) error %q does not mention %s", c.list, err, want)
			}
		}
	}
}
