package analysis

import (
	"sync"
	"testing"
)

// TestVetRealTreeClean is the acceptance gate: the shipped tree must carry
// zero findings, with directive hygiene on as in CI. Any new violation of
// the paper's invariants, or a //caer: comment the tree no longer needs,
// fails this test (and `caer-vet -unused-suppressions ./...` in make
// check).
func TestVetRealTreeClean(t *testing.T) {
	loader, pkgs := realTree(t)
	cfg := DefaultConfig()
	cfg.ModulePath = loader.ModPath
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
	dirs, err := ExpandPatterns(testdataRoot(t), []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	findings, err := Vet(testdataRoot(t), "test", dirs, Analyzers(), DefaultConfig())
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

// shipped memoizes the load of the shipped module: type-checking it (and the
// standard library from source) is most of this package's test time, so
// the test binary does it once.
var shipped struct {
	once   sync.Once
	loader *Loader
	pkgs   []*Package
	err    error
}

// realTree returns the loader holding the shipped module and the module's
// "./..." packages, loading them on first use.
func realTree(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	shipped.once.Do(func() {
		root, path, err := FindModule(".")
		var dirs []string
		if err == nil {
			dirs, err = ExpandPatterns(root, []string{"./..."})
		}
		if err == nil {
			shipped.loader = NewLoader(root, path)
			shipped.pkgs, err = shipped.loader.loadAll(dirs)
		}
		shipped.err = err
	})
	if shipped.err != nil {
		t.Fatalf("load the shipped module: %v", shipped.err)
	}
	return shipped.loader, shipped.pkgs
}
func testdataRoot(t *testing.T) string {
	t.Helper()
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	return root + "/internal/analysis/testdata/src"
}
