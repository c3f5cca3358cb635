package analysis

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// want is one expectation parsed from a testdata comment of the form
//
//	// want <analyzer> "substring" [<analyzer> "substring" ...]
//
// attached to the offending line.
type want struct {
	file     string // base name
	line     int
	analyzer string
	substr   string
	matched  bool
}

var wantRe = regexp.MustCompile(`(\w+)\s+"([^"]+)"`)

// parseWants scans every Go file of a testdata package directory for want
// comments.
func parseWants(t *testing.T, dir string) []*want {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read testdata dir: %v", err)
	}
	var wants []*want
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("open testdata file: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			idx := strings.Index(text, "// want ")
			if idx < 0 {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(text[idx+len("// want "):], -1) {
				wants = append(wants, &want{file: e.Name(), line: line, analyzer: m[1], substr: m[2]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scan testdata file: %v", err)
		}
		if err := f.Close(); err != nil {
			t.Fatalf("close testdata file: %v", err)
		}
	}
	return wants
}

// loadTestPkgs loads packages of the testdata module (module path "test")
// through one loader, so they share type identities.
func loadTestPkgs(t *testing.T, rels ...string) []*Package {
	t.Helper()
	root := testdataRoot(t)
	loader := NewLoader(root, "test")
	var pkgs []*Package
	for _, rel := range rels {
		pkg, err := loader.Load(filepath.Join(root, rel))
		if err != nil {
			t.Fatalf("load testdata package %s: %v", rel, err)
		}
		if pkg == nil {
			t.Fatalf("testdata package %s has no Go files", rel)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// loadTestPkg loads one package of the testdata module.
func loadTestPkg(t *testing.T, rel string) *Package {
	t.Helper()
	return loadTestPkgs(t, rel)[0]
}

// seeded memoizes the whole-tree vet of the seeded module.
var seeded struct {
	once sync.Once
	all  []Finding
	err  error
}

// seededFindings vets the whole seeded module the way the tool does — one
// call graph over every package, so a directive on a callee in another
// package (caer's hot Tick calling comm's //caer:allocates Samples) is seen
// — and returns the findings positioned in package rel.
func seededFindings(t *testing.T, rel string) []Finding {
	t.Helper()
	root := testdataRoot(t)
	seeded.once.Do(func() {
		var dirs []string
		if dirs, seeded.err = ExpandPatterns(root, []string{"./..."}); seeded.err == nil {
			seeded.all, seeded.err = Vet(root, "test", dirs, Analyzers(), DefaultConfig())
		}
	})
	if seeded.err != nil {
		t.Fatalf("vet seeded tree: %v", seeded.err)
	}
	var findings []Finding
	for _, f := range seeded.all {
		if filepath.Dir(f.Pos.Filename) == filepath.Join(root, rel) {
			findings = append(findings, f)
		}
	}
	return findings
}

// matchWants marks every want a finding hits and returns the findings no
// want expects. The substring is matched against the rendered finding, so
// a want can pin the call path too.
func matchWants(findings []Finding, wants []*want) (unexpected []Finding) {
	for _, f := range findings {
		base := filepath.Base(f.Pos.Filename)
		ok := false
		for _, w := range wants {
			if w.file == base && w.line == f.Pos.Line && w.analyzer == f.Analyzer &&
				strings.Contains(f.String(), w.substr) {
				w.matched = true
				ok = true
			}
		}
		if !ok {
			unexpected = append(unexpected, f)
		}
	}
	return unexpected
}

// runGolden checks one testdata package: every want comment must be hit by
// a finding and every finding must be expected by a want comment.
func runGolden(t *testing.T, rel string) {
	t.Helper()
	wants := parseWants(t, filepath.Join(testdataRoot(t), rel))
	for _, f := range matchWants(seededFindings(t, rel), wants) {
		t.Errorf("unexpected finding: %s", f)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: %s:%d expected [%s] containing %q",
				w.file, w.line, w.analyzer, w.substr)
		}
	}
}

func TestGoldenComm(t *testing.T)      { runGolden(t, "comm") }
func TestGoldenCaer(t *testing.T)      { runGolden(t, "caer") }
func TestGoldenPmu(t *testing.T)       { runGolden(t, "pmu") }
func TestGoldenTelemetry(t *testing.T) { runGolden(t, "telemetry") }
func TestGoldenMem(t *testing.T)       { runGolden(t, "mem") }
func TestGoldenTeldisc(t *testing.T)   { runGolden(t, "teldisc") }
func TestGoldenFleet(t *testing.T)     { runGolden(t, "fleet") }
func TestGoldenPart(t *testing.T)      { runGolden(t, "part") }

// TestGoldenSeedsEveryAnalyzer guards the fixtures themselves: each
// analyzer of the suite must have at least one seeded violation across the
// golden packages, or a regression could silently disable it.
func TestGoldenSeedsEveryAnalyzer(t *testing.T) {
	hit := make(map[string]int)
	for _, rel := range []string{"comm", "caer", "pmu", "telemetry", "mem", "teldisc", "hygiene", "fleet", "part"} {
		for _, f := range seededFindings(t, rel) {
			hit[f.Analyzer]++
		}
	}
	for _, a := range Analyzers() {
		if hit[a.Name] == 0 {
			t.Errorf("analyzer %s catches nothing in the golden packages", a.Name)
		}
	}
}

// TestSuppressionHygiene checks the hygiene analyzer over its dedicated
// fixture package, with ReportUnusedSuppressions on. The directive cases
// carry want comments (unknown word, detached directive, reason-less cold,
// redundant root, unreached barrier); the three //caer:allow cases cannot —
// trailing text would parse as the allow's reason — and are counted: a
// reason-less allow and one naming an unknown analyzer are always
// findings, an unused allow only when the analyzers it names actually ran
// (subset runs must not cry stale).
func TestSuppressionHygiene(t *testing.T) {
	pkg := loadTestPkg(t, "hygiene")
	cfg := DefaultConfig()
	cfg.ModulePath = "test"
	cfg.ReportUnusedSuppressions = true

	wants := parseWants(t, pkg.Dir)
	var missingReason, unknown, unused int
	for _, f := range matchWants(RunAnalyzers(pkg, Analyzers(), cfg), wants) {
		switch {
		case f.Analyzer == Suppression.Name && strings.Contains(f.Message, "suppression needs a reason"):
			missingReason++
		case f.Analyzer == Suppression.Name && strings.Contains(f.Message, "unknown analyzer shmacess"):
			unknown++
		case f.Analyzer == Suppression.Name && strings.Contains(f.Message, "unused suppression"):
			unused++
		default:
			t.Errorf("unexpected finding in hygiene package: %s", f)
		}
	}
	if missingReason != 1 {
		t.Errorf("missing-reason findings = %d, want 1", missingReason)
	}
	if unknown != 1 {
		t.Errorf("unknown-analyzer findings = %d, want 1", unknown)
	}
	if unused != 1 {
		t.Errorf("unused-suppression findings = %d, want 1", unused)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding: %s:%d expected [%s] containing %q",
				w.file, w.line, w.analyzer, w.substr)
		}
	}

	// A subset run without hotpath must not call the hotpath allow stale,
	// but an unknown name is unknown to every subset.
	subset, err := SelectAnalyzers("lockdiscipline,suppression")
	if err != nil {
		t.Fatalf("SelectAnalyzers: %v", err)
	}
	unknown = 0
	for _, f := range RunAnalyzers(pkg, subset, cfg) {
		if strings.Contains(f.Message, "unused suppression") {
			t.Errorf("unused finding reported though hotpath did not run: %s", f)
		}
		if strings.Contains(f.Message, "unknown analyzer") {
			unknown++
		}
	}
	if unknown != 1 {
		t.Errorf("subset run: unknown-analyzer findings = %d, want 1", unknown)
	}

	// Without the flag only the malformed directives remain; the redundant
	// root and the unreached barrier are hygiene-mode findings.
	cfg.ReportUnusedSuppressions = false
	unknown = 0
	for _, f := range RunAnalyzers(pkg, Analyzers(), cfg) {
		if strings.Contains(f.Message, "redundant") || strings.Contains(f.Message, "unreached") ||
			strings.Contains(f.Message, "unused suppression") {
			t.Errorf("hygiene-mode finding reported without ReportUnusedSuppressions: %s", f)
		}
		if strings.Contains(f.Message, "unknown analyzer") {
			unknown++
		}
	}
	if unknown != 1 {
		t.Errorf("without the flag: unknown-analyzer findings = %d, want 1", unknown)
	}
}

// TestSuppressionComment verifies //caer:allow drops a finding that the
// same code without the comment produces (the suppress.go fixture calls an
// allocating snapshot API from a hot function).
func TestSuppressionComment(t *testing.T) {
	pkgs := loadTestPkgs(t, "caer", "comm") // comm declares the snapshot API
	pkg, graph := pkgs[0], BuildCallGraph(pkgs)

	var raw []Finding
	pass := &Pass{Analyzer: HotPath, Fset: pkg.Fset, Files: pkg.Files,
		Pkg: pkg.Types, Info: pkg.Info, Cfg: DefaultConfig(),
		Graph: graph, Hot: graph.HotSet(), findings: &raw}
	HotPath.Run(pass)

	inSuppress := func(fs []Finding) int {
		n := 0
		for _, f := range fs {
			if filepath.Base(f.Pos.Filename) == "suppress.go" {
				n++
			}
		}
		return n
	}
	if got := inSuppress(raw); got != 1 {
		t.Fatalf("expected exactly 1 raw hotpath finding in suppress.go, got %d", got)
	}
	if got := inSuppress(filterSuppressed(collectSuppressions(pkg), raw)); got != 0 {
		t.Errorf("suppressed finding survived filtering (%d left)", got)
	}
}
