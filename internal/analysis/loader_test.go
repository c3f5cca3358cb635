package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFindModule(t *testing.T) {
	root, path, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	if path != "caer" {
		t.Errorf("module path = %q, want %q", path, "caer")
	}
	if filepath.Base(filepath.Dir(filepath.Dir(root))) == "analysis" {
		t.Errorf("module root %q should be above internal/analysis", root)
	}
}

func TestModulePathFromGoMod(t *testing.T) {
	cases := map[string]string{
		"module caer\n\ngo 1.22\n":          "caer",
		"// hi\nmodule example.com/x/y\n":   "example.com/x/y",
		"module \"quoted/path\"\ngo 1.22\n": "quoted/path",
		"go 1.22\n":                         "",
	}
	for in, wantPath := range cases {
		if got := modulePathFromGoMod([]byte(in)); got != wantPath {
			t.Errorf("modulePathFromGoMod(%q) = %q, want %q", in, got, wantPath)
		}
	}
}

func TestLoaderLoadsRealPackage(t *testing.T) {
	l, _ := realTree(t)
	pkg, err := l.Load(filepath.Join(l.ModRoot, "internal", "comm"))
	if err != nil {
		t.Fatalf("Load internal/comm: %v", err)
	}
	if pkg.Path != "caer/internal/comm" {
		t.Errorf("package path = %q, want caer/internal/comm", pkg.Path)
	}
	if pkg.Types.Scope().Lookup("Directive") == nil {
		t.Errorf("type-checked comm package is missing Directive")
	}
	// The loader must cache: a second load returns the same package.
	again, err := l.Load("internal/comm")
	if err != nil {
		t.Fatalf("reload internal/comm: %v", err)
	}
	if again != pkg {
		t.Errorf("loader did not cache internal/comm")
	}
}

func TestExpandPatternsSkipsTestdata(t *testing.T) {
	root, _, err := FindModule(".")
	if err != nil {
		t.Fatalf("FindModule: %v", err)
	}
	dirs, err := ExpandPatterns(root, []string{"./..."})
	if err != nil {
		t.Fatalf("ExpandPatterns: %v", err)
	}
	sawAnalysis := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("pattern expansion descended into testdata: %s", d)
		}
		if filepath.Base(d) == "analysis" {
			sawAnalysis = true
		}
	}
	if !sawAnalysis {
		t.Errorf("pattern expansion missed internal/analysis; got %d dirs", len(dirs))
	}
}

// TestExpandPatternsStopsAtNestedModule pins the go tool's rule: a
// directory below the pattern root that holds its own go.mod is another
// module and is not walked, but naming it explicitly still loads it.
func TestExpandPatternsStopsAtNestedModule(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "a/a.go", "nested/go.mod", "nested/n.go", "nested/sub/s.go"} {
		p := filepath.Join(root, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rel := func(dirs []string) string {
		var out []string
		for _, d := range dirs {
			r, err := filepath.Rel(root, d)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, filepath.ToSlash(r))
		}
		return strings.Join(out, " ")
	}
	cases := []struct{ pattern, want string }{
		{"./...", ". a"},
		{"./nested", "nested"},
		{"./nested/...", "nested nested/sub"},
	}
	for _, c := range cases {
		dirs, err := ExpandPatterns(root, []string{c.pattern})
		if err != nil {
			t.Fatalf("ExpandPatterns(%s): %v", c.pattern, err)
		}
		if got := rel(dirs); got != c.want {
			t.Errorf("ExpandPatterns(%s) = %q, want %q", c.pattern, got, c.want)
		}
	}
}
