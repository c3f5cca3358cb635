package analysis

import (
	"path/filepath"
	"sync"
	"testing"
)

// TestVetRealTreeClean is the acceptance gate: the shipped tree must carry
// zero findings, with directive hygiene on as in CI. Any new violation of
// the paper's invariants, or a //caer: comment the tree no longer needs,
// fails this test (and `caer-vet -unused-suppressions ./...` in make
// check).
func TestVetRealTreeClean(t *testing.T) {
	modPath, pkgs := realTree(t)
	cfg := DefaultConfig()
	cfg.ModulePath = modPath
	cfg.ReportUnusedSuppressions = true
	for _, f := range VetPackages(pkgs, Analyzers(), cfg) {
		t.Errorf("real tree finding: %s", f)
	}
}

// TestHotClosureSentinels pins the derived hot closure of the shipped tree
// from both sides. Only the per-period entry points carry //caer:hot, so
// deleting (or detaching) one root's directive silently shrinks the audit
// unless something notices: deep leaves several packages below the roots
// must still be reached, and the functions behind the reviewed //caer:cold
// barriers must still be outside. A sentinel that names no function in the
// call graph fails too, so a rename cannot turn a check vacuous.
func TestHotClosureSentinels(t *testing.T) {
	_, pkgs := realTree(t)
	g := BuildCallGraph(pkgs)
	declared := make(map[string]bool)
	for _, n := range g.Nodes() {
		declared[n.Label()] = true
	}
	hot := make(map[string]bool)
	for fn := range g.HotSet() {
		hot[g.Lookup(fn).Label()] = true
	}
	leaves := []string{
		"caer.Runtime.Step", "mem.Cache.find", "stats.Window.Push", "slo.burnAt",
		"comm.Slot.WindowMean", "sched.Picker.Pick", "telemetry.Counter.Inc",
		"machine.Machine.stepUncontended",
		// The SLO engine's per-period queries, hot through the fleet tick
		// (Cluster.Tick -> Node.syncTelemetry -> slo.Engine.Evaluate).
		"telemetry.Series.RateAt", "telemetry.Series.OverShareAt",
	}
	barred := []string{
		"machine.Pool.wakeHelpers", "sched.Scheduler.admitTo",
		"fleet.Cluster.scrapeAll", "caer.Pipeline.start",
	}
	for _, fn := range append(leaves, barred...) {
		if !declared[fn] {
			t.Errorf("sentinel %s is not a function in the call graph: renamed or deleted?", fn)
		}
	}
	for _, leaf := range leaves {
		if !hot[leaf] {
			t.Errorf("%s is not in the hot closure: a //caer:hot root above it lost its directive", leaf)
		}
	}
	for _, fn := range barred {
		if hot[fn] {
			t.Errorf("%s is in the hot closure: its //caer:cold barrier is gone", fn)
		}
	}
}

// TestVetSeededTreeFails is the inverse gate: over the seeded-violation
// testdata module, every analyzer must fire.
func TestVetSeededTreeFails(t *testing.T) {
	findings, err := Vet(testdataRoot(t), []string{"./..."}, Analyzers(), DefaultConfig())
	if err != nil {
		t.Fatalf("Vet: %v", err)
	}
	byAnalyzer := make(map[string]int)
	for _, f := range findings {
		byAnalyzer[f.Analyzer]++
	}
	for _, a := range Analyzers() {
		if byAnalyzer[a.Name] == 0 {
			t.Errorf("analyzer %s reported nothing over the seeded tree", a.Name)
		}
	}
}

// shipped memoizes the load of the shipped module: type-checking it is
// most of this package's test time, so the test binary does it once.
var shipped struct {
	once    sync.Once
	modPath string
	pkgs    []*Package
	err     error
}

// realTree returns the shipped module's path and its "./..." packages,
// loading them on first use.
func realTree(t *testing.T) (string, []*Package) {
	t.Helper()
	shipped.once.Do(func() {
		shipped.modPath, shipped.pkgs, shipped.err = Load(filepath.Join("..", ".."), "./...")
	})
	if shipped.err != nil {
		t.Fatalf("load the shipped module: %v", shipped.err)
	}
	return shipped.modPath, shipped.pkgs
}

// testdataRoot returns the absolute root of the seeded-violation module
// (module path "test"), the directory findings are positioned under.
func testdataRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatalf("testdata root: %v", err)
	}
	return root
}
