package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out files (slash-separated path -> contents) under a
// fresh temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		p := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestLoaderLoadsRealPackage(t *testing.T) {
	modPath, pkgs, err := Load(filepath.Join("..", ".."), "./internal/comm")
	if err != nil {
		t.Fatalf("Load ./internal/comm: %v", err)
	}
	if modPath != "caer" {
		t.Errorf("module path = %q, want caer", modPath)
	}
	// Only the matched package comes back; its main-module dependencies
	// were type-checked but are not returned.
	if len(pkgs) != 1 || pkgs[0].Path != "caer/internal/comm" {
		var got []string
		for _, p := range pkgs {
			got = append(got, p.Path)
		}
		t.Fatalf("loaded %v, want [caer/internal/comm]", got)
	}
	pkg := pkgs[0]
	if pkg.Types.Scope().Lookup("Directive") == nil {
		t.Errorf("type-checked comm package is missing Directive")
	}
	if !filepath.IsAbs(pkg.Dir) || filepath.Base(pkg.Dir) != "comm" {
		t.Errorf("package dir = %q, want the absolute internal/comm directory", pkg.Dir)
	}
	if len(pkg.Types.Imports()) == 0 {
		t.Errorf("comm resolved no imports")
	}
}

// TestLoadSkipsWhatTheGoToolSkips pins the go tool's pattern rule, which
// keeps the seeded fixtures out of the real-tree vet: "./..." walks past
// testdata, underscore- and dot-prefixed directories, and a directory with
// its own go.mod is another module.
func TestLoadSkipsWhatTheGoToolSkips(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":          "module tmp\n\ngo 1.22\n",
		"root.go":         "package tmp\n",
		"a/a.go":          "package a\n\nimport _ \"tmp/a/b\"\n",
		"a/b/b.go":        "package b\n",
		"testdata/t.go":   "package t\n",
		"_x/x.go":         "package x\n",
		".hidden/h.go":    "package h\n",
		"nested/go.mod":   "module nested\n\ngo 1.22\n",
		"nested/n.go":     "package n\n",
		"nested/sub/s.go": "package sub\n",
	})
	modPath, pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if modPath != "tmp" {
		t.Errorf("module path = %q, want tmp", modPath)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := "tmp tmp/a tmp/a/b"; strings.Join(got, " ") != want {
		t.Errorf("Load(./...) = %v, want %s", got, want)
	}
	// Named from inside, the nested module loads as its own main module.
	if modPath, pkgs, err := Load(filepath.Join(root, "nested"), "./..."); err != nil ||
		modPath != "nested" || len(pkgs) != 2 {
		t.Errorf("Load(nested, ./...) = %q, %d packages, %v; want nested, 2, nil", modPath, len(pkgs), err)
	}
}

// TestLoadReportsListErrors requires a package go list flags — one that
// does not parse, one importing a package that does not exist — to fail
// the load with an error naming it.
func TestLoadReportsListErrors(t *testing.T) {
	cases := []struct {
		name  string
		files map[string]string
		want  []string
	}{
		{"syntax", map[string]string{
			"go.mod":   "module tmp\n\ngo 1.22\n",
			"ok/ok.go": "package ok\n",
			"bad/b.go": "package bad\n\nfunc F( {\n",
		}, []string{"tmp/bad", "syntax error"}},
		{"missing import", map[string]string{
			"go.mod":   "module tmp\n\ngo 1.22\n",
			"imp/i.go": "package imp\n\nimport _ \"nosuch/pkg\"\n",
		}, []string{"nosuch/pkg", "imported by tmp/imp"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, pkgs, err := Load(writeModule(t, c.files), "./...")
			if err == nil {
				t.Fatalf("Load succeeded with %d packages, want an error", len(pkgs))
			}
			for _, w := range c.want {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not mention %q", err, w)
				}
			}
		})
	}
}

// TestLoadNestedModules pins how Load finds the packages of a module
// nested below the main one that requires it (the repository benchmark's
// shape): they come back marked Nested, type-checked against the main
// module's own packages; a nested module that does not require the main
// one is ignored, and a nested package importing a main-module package
// the patterns did not load is left out.
func TestLoadNestedModules(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":          "module tmp\n\ngo 1.22\n",
		"a/a.go":          "package a\n\nfunc F() int { return 1 }\n",
		"b/b.go":          "package b\n",
		"bench/go.mod":    "module tmp/bench\n\ngo 1.22\n\nrequire tmp v0.0.0\n\nreplace tmp => ../\n",
		"bench/main.go":   "package main\n\nimport \"tmp/a\"\n\nfunc main() { _ = a.F() }\n",
		"other/go.mod":    "module other\n\ngo 1.22\n",
		"other/o/o.go":    "package o\n",
		"testdata/go.mod": "module tmp/td\n\ngo 1.22\n\nrequire tmp v0.0.0\n\nreplace tmp => ../\n",
		"testdata/t.go":   "package td\n\nimport _ \"tmp/a\"\n",
	})
	_, pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, fmt.Sprintf("%s:%v", p.Path, p.Nested))
	}
	if want := "tmp/a:false tmp/b:false tmp/bench:true"; strings.Join(got, " ") != want {
		t.Fatalf("Load(./...) = %v, want %s", got, want)
	}
	bench := pkgs[2]
	for id, obj := range bench.Info.Uses {
		if id.Name == "F" && obj.Pkg() != pkgs[0].Types {
			t.Errorf("nested use of a.F resolves to %v, not the loaded package's object", obj.Pkg())
		}
	}
	// Without tmp/a loaded, the nested command's use of it cannot be
	// matched: it is left out rather than checked against export data.
	if _, pkgs, err := Load(root, "./b"); err != nil || len(pkgs) != 1 {
		t.Errorf("Load(./b) = %d packages, %v; want only tmp/b", len(pkgs), err)
	}
}
