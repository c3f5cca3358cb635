package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. "caer/internal/comm"
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Nested marks a package of another module inside this module's tree
	// that requires it (the repository benchmark). It is type-checked
	// against the module's own packages only so the reach analyzer can
	// root what it uses; no analyzer runs over it and the call graph
	// gives it no nodes.
	Nested bool
}

// listed is the part of one `go list -json` record Load reads.
type listed struct {
	ImportPath string
	Dir        string
	Export     string // the compiled export data file
	GoFiles    []string
	Imports    []string
	DepOnly    bool // a dependency only, not matched by a pattern
	Module     *struct {
		Path string
		Dir  string
		Main bool
	}
	Error *struct {
		ImportStack []string
		Err         string
	}
}

// Load resolves patterns the way the go tool does, from dir, with one
// `go list -export -deps` call: main-module packages are parsed and
// type-checked from source in the deps-first order go list prints, and
// everything else they import (the standard library) comes from the
// export data that same call reported. Test files are not loaded — the
// invariants caer-vet guards live in the runtime itself. It returns the
// main module's path and the packages the patterns matched, sorted by
// import path, followed by the Nested packages: those of every module
// below the main module's root that requires it, listed by one more
// such call each and checked against the packages above (one that
// imports a main-module package this load did not check is left out). A
// failed go list, or a listed package carrying an error, fails the load.
func Load(dir string, patterns ...string) (modPath string, pkgs []*Package, err error) {
	fset := token.NewFileSet()
	exports := make(map[string]string)
	checked := make(map[string]*types.Package)
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if file := exports[path]; file != "" {
			return os.Open(file)
		}
		return nil, fmt.Errorf("analysis: go list reported no export data for %q", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tpkg := checked[path]; tpkg != nil {
			return tpkg, nil
		}
		return gc.Import(path)
	})
	checkListed := func(p listed) (*Package, error) {
		pkg, err := check(fset, p, imp)
		if err == nil {
			checked[p.ImportPath] = pkg.Types
		}
		return pkg, err
	}

	var modDir string
	err = goList(dir, patterns, func(p listed) error {
		if p.Module == nil || !p.Module.Main {
			exports[p.ImportPath] = p.Export
			return nil
		}
		modPath, modDir = p.Module.Path, p.Module.Dir
		pkg, err := checkListed(p)
		if err == nil && !p.DepOnly {
			pkgs = append(pkgs, pkg)
		}
		return err
	})
	if err != nil {
		return "", nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	for _, nested := range nestedModules(modDir, modPath) {
		err := goList(nested, []string{"./..."}, func(p listed) error {
			switch {
			case p.Module == nil || p.Module.Path != modPath && !p.Module.Main:
				exports[p.ImportPath] = p.Export
			case p.Module.Main:
				for _, path := range p.Imports {
					if (path == modPath || strings.HasPrefix(path, modPath+"/")) && checked[path] == nil {
						return nil
					}
				}
				pkg, err := checkListed(p)
				if err == nil {
					pkg.Nested = true
					pkgs = append(pkgs, pkg)
				}
				return err
			}
			return nil
		})
		if err != nil {
			return "", nil, err
		}
	}
	return modPath, pkgs, nil
}

// goList runs `go list -e -export -deps -json` over patterns from dir and
// hands each record to visit, in the deps-first order go list prints. A
// record carrying an error fails the call.
func goList(dir string, patterns []string, visit func(listed) error) error {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Imports,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("analysis: go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("analysis: decode go list output: %w", err)
		}
		if p.Error != nil {
			name := p.ImportPath
			if len(p.Error.ImportStack) > 0 {
				name += " (imported by " + strings.Join(p.Error.ImportStack, " <- ") + ")"
			}
			return fmt.Errorf("analysis: %s: %s", name, strings.TrimSpace(p.Error.Err))
		}
		if err := visit(p); err != nil {
			return err
		}
	}
}

// nestedModules returns the directories below root that hold a module
// requiring modPath, walking as "./..." does: testdata, vendor and
// directories whose names begin with "." or "_" are skipped.
func nestedModules(root, modPath string) []string {
	if root == "" {
		return nil
	}
	var dirs []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() || path == root {
			return nil
		}
		if name := d.Name(); name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		gomod, err := os.ReadFile(filepath.Join(path, "go.mod"))
		if err != nil {
			return nil
		}
		for _, line := range strings.Split(string(gomod), "\n") {
			f := strings.Fields(line)
			if len(f) > 0 && f[0] == "require" {
				f = f[1:]
			}
			if len(f) > 0 && f[0] == modPath {
				dirs = append(dirs, path)
				break
			}
		}
		return filepath.SkipDir
	})
	return dirs
}

// check parses and type-checks one listed main-module package, resolving
// its imports through imp.
func check(fset *token.FileSet, p listed, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", build.Default.GOARCH)}
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Dir: p.Dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
