package main

// -compare: a per-workload, per-metric delta table under the benchmark's
// own bounds. End-to-end metrics regress when the new median is worse than
// the old by more than the bound; a metric whose own spread (IQR over
// median, either side) exceeds the bound is unresolved, not unchanged.
// sim.* and count metrics compare exactly.
//
// Binds to: nothing of the system under test.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
)

func spreadOf(v metricValue) float64 {
	if v.Value == 0 {
		return 0
	}
	return (v.Q3 - v.Q1) / v.Value
}

// verdict classifies one end-to-end metric's move from old to new.
func verdict(d metricDef, old, new metricValue) (worseBy float64, v string) {
	if old.Value == 0 {
		return 0, "no-base"
	}
	worseBy = (new.Value - old.Value) / old.Value
	if d.Better == "higher" {
		worseBy = -worseBy
	}
	switch {
	case spreadOf(old) > d.Bound || spreadOf(new) > d.Bound:
		return worseBy, "unresolved"
	case worseBy > d.Bound && math.Abs(new.Value-old.Value) > d.Bound*old.Value+absSlack[d.Name]:
		return worseBy, "REGRESSION"
	case worseBy < -d.Bound:
		return worseBy, "improved"
	}
	return worseBy, "ok"
}

// compareReports writes the delta table and reports whether any
// end-to-end metric regressed.
func compareReports(old, new *report, w io.Writer) bool {
	if !old.Host.sameMachine(new.Host) {
		fmt.Fprintf(w, "warning: host fingerprints differ (%q/%d vs %q/%d); host times are not comparable\n",
			old.Host.CPUModel, old.Host.NumCPU, new.Host.CPUModel, new.Host.NumCPU)
	}
	regressed := false
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\told\tnew\tworse by\tbound\tverdict\n")
	for _, wl := range workloads {
		o, n := old.Workloads[wl.name], new.Workloads[wl.name]
		if o == nil || n == nil {
			continue
		}
		if n.Failed > o.Failed {
			fmt.Fprintf(tw, "%s\tfailed checks\t%d\t%d\t\t0\tREGRESSION\n", wl.name, o.Failed, n.Failed)
			regressed = true
		}
		for _, d := range endToEnd {
			worse, v := verdict(d, o.EndToEnd[d.Name], n.EndToEnd[d.Name])
			regressed = regressed || v == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n",
				wl.name, d.Name, o.EndToEnd[d.Name].Value, n.EndToEnd[d.Name].Value, worse*100, d.Bound*100, v)
		}
		if o.PerLayer == nil || n.PerLayer == nil {
			continue
		}
		for _, d := range perLayer {
			ov, nv := o.PerLayer[d.Name].Value, n.PerLayer[d.Name].Value
			v := "-"
			switch {
			case d.Unit != "count" && !strings.HasPrefix(d.Name, "sim."):
			case ov == nv:
				v = "same"
			case strings.HasPrefix(d.Name, "sim."):
				v = "sim-changed"
			default:
				v = "changed"
			}
			delta := ""
			if ov != 0 {
				delta = fmt.Sprintf("%+.1f%%", (nv-ov)/ov*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t\t%s\n", wl.name, d.Name, ov, nv, delta, v)
		}
	}
	tw.Flush()
	return regressed
}

// compareFiles loads two results and compares them. When oldPath is a
// .jsonl trajectory the baseline is its last line from new's host.
func compareFiles(oldPath, newPath string, w io.Writer) (bool, error) {
	new, err := loadReport(newPath, nil)
	if err != nil {
		return false, err
	}
	var like *host
	if strings.HasSuffix(oldPath, ".jsonl") {
		like = &new.Host
	}
	old, err := loadReport(oldPath, like)
	if errors.Is(err, errNoBaseline) {
		fmt.Fprintln(w, "no baseline from this host fingerprint; nothing to compare")
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return compareReports(old, new, w), nil
}
