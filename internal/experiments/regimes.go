package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"caer/internal/report"
)

// This file is the regime-suite harness: one table of suites and one loop
// that runs them. caer-bench registers its suite flags from Regimes, the
// package's tests range over it, and check.sh (which CI calls) runs every
// row through caer-bench — so adding a suite is one file implementing
// RegimeResult plus one row here, with no edit to caer-bench, check.sh or
// ci.yml.

// RegimeResult is one suite run: the table it prints and the claim it gates.
type RegimeResult interface {
	// Render writes the suite's summary and comparison table.
	Render(io.Writer) error
	// Check returns nil when the suite's claim holds for this run.
	Check() error
	// Holds is the line RunRegimes prints once Check has passed ("" prints
	// nothing).
	Holds() string
}

// Regime is one row of the suite table.
type Regime struct {
	// Name is the caer-bench flag and the BENCH_<Name>.json artifact stem.
	Name string
	// Help is the flag's usage text: what runs and what is gated.
	Help string
	// Run executes the suite. It must be a pure function of seed and quick:
	// workers sizes the stepper pool the fleet and slo rows' machines share
	// and is deliberately not recorded in any result, so byte-comparing
	// artifacts across worker counts pins the pool's determinism contract.
	Run func(seed int64, quick bool, workers int) RegimeResult
	// TableOnly marks a suite with no JSON artifact (chaos).
	TableOnly bool
	// Extra, when set, writes further files next to the artifact and
	// returns the name pattern to report (slo's caer-doctor bundle).
	Extra func(res RegimeResult, dir string) (string, error)
}

// Regimes is the suite table, in the order caer-bench prints them.
var Regimes = []Regime{
	{
		Name:      "chaos",
		Help:      "fault-injection regimes (DESIGN.md §8): every fault class against every pairing must fail open",
		Run:       func(seed int64, quick bool, _ int) RegimeResult { return ChaosSuite(seed, quick) },
		TableOnly: true,
	},
	{
		Name: "sched",
		Help: "scheduler regimes (DESIGN.md §9): contention-aware placement must keep jobs off the latency domain at equal admitted throughput",
		Run:  func(seed int64, quick bool, _ int) RegimeResult { return SchedRegimeSuite(seed, quick) },
	},
	{
		Name: "sampling",
		Help: "sampling-mode sweep (DESIGN.md §13): event-driven modes must flag every burst polling flags at strictly fewer probes",
		Run:  func(seed int64, quick bool, _ int) RegimeResult { return SamplingSuite(seed, quick) },
	},
	{
		Name: "fleet",
		Help: "fleet regimes (DESIGN.md §14): least-pressure placement must beat round-robin on the sensitive service's p99",
		Run:  func(seed int64, quick bool, workers int) RegimeResult { return FleetSuite(seed, quick, workers) },
	},
	{
		Name: "partition",
		Help: "partition regimes (DESIGN.md §16): LLC way-partitioning must beat pure throttling on latency QoS and batch makespan",
		Run:  func(seed int64, quick bool, _ int) RegimeResult { return PartitionSuite(seed, quick) },
	},
	{
		Name: "slo",
		Help: "SLO regimes (DESIGN.md §15): telemetry-fed placement, scrape-outage fallback and the seeded alert battery; also writes the caer-doctor bundle",
		Run:  func(seed int64, quick bool, workers int) RegimeResult { return SLOSuite(seed, quick, workers) },
		Extra: func(res RegimeResult, dir string) (string, error) {
			return "SLO_{series,events,trace,objectives}.json", res.(SLORegime).WriteDoctorBundle(dir)
		},
	},
}

// regimeByName finds a suite row.
func regimeByName(name string) (Regime, bool) {
	for _, r := range Regimes {
		if r.Name == name {
			return r, true
		}
	}
	return Regime{}, false
}

// WriteJSON emits a suite result as its machine-readable artifact (the
// BENCH_<name>.json format).
//
//caer:deterministic
func WriteJSON(w io.Writer, res RegimeResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// RunRegimes runs the named suites in the order given. For each it renders
// the table to w, enforces the gate, and writes BENCH_<name>.json (plus any
// extra files) into dir — the working directory when dir is "". The first
// render, gate or write failure stops the run.
func RunRegimes(w io.Writer, names []string, seed int64, quick bool, workers int, dir string) error {
	rows := make([]Regime, len(names))
	for i, name := range names {
		row, ok := regimeByName(name)
		if !ok {
			var valid []string
			for _, r := range Regimes {
				valid = append(valid, r.Name)
			}
			return fmt.Errorf("unknown regime suite %q (valid: %s)", name, strings.Join(valid, ", "))
		}
		rows[i] = row
	}
	for _, row := range rows {
		fmt.Fprintln(w)
		res := row.Run(seed, quick, workers)
		if err := res.Render(w); err != nil {
			return fmt.Errorf("render %s regimes: %w", row.Name, err)
		}
		if err := res.Check(); err != nil {
			return fmt.Errorf("%s gate violation: %w", row.Name, err)
		}
		if line := res.Holds(); line != "" {
			fmt.Fprintln(w, line)
		}
		if err := row.write(w, res, dir); err != nil {
			return err
		}
	}
	return nil
}

// write puts res's artifact and extra files into dir, reporting each on w.
func (row Regime) write(w io.Writer, res RegimeResult, dir string) error {
	if !row.TableOnly {
		path := filepath.Join(dir, "BENCH_"+row.Name+".json")
		if err := report.WriteFile(path, func(w io.Writer) error { return WriteJSON(w, res) }); err != nil {
			return err
		}
		fmt.Fprintf(w, "[wrote %s]\n", path)
	}
	if row.Extra != nil {
		pattern, err := row.Extra(res, dir)
		if err != nil {
			return fmt.Errorf("write %s extra files: %w", row.Name, err)
		}
		fmt.Fprintf(w, "[wrote %s]\n", filepath.Join(dir, pattern))
	}
	return nil
}
