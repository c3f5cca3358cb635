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
}

// listed is the part of one `go list -json` record Load reads.
type listed struct {
	ImportPath string
	Dir        string
	Export     string // the compiled export data file
	GoFiles    []string
	DepOnly    bool // a dependency only, not matched by a pattern
	Module     *struct {
		Path string
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
// import path. A failed go list, or a listed package carrying an error,
// fails the load.
func Load(dir string, patterns ...string) (modPath string, pkgs []*Package, err error) {
	args := append([]string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,DepOnly,Module,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", nil, fmt.Errorf("analysis: go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}

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

	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return "", nil, fmt.Errorf("analysis: decode go list output: %w", err)
		}
		if p.Error != nil {
			name := p.ImportPath
			if len(p.Error.ImportStack) > 0 {
				name += " (imported by " + strings.Join(p.Error.ImportStack, " <- ") + ")"
			}
			return "", nil, fmt.Errorf("analysis: %s: %s", name, strings.TrimSpace(p.Error.Err))
		}
		if p.Module == nil || !p.Module.Main {
			exports[p.ImportPath] = p.Export
			continue
		}
		modPath = p.Module.Path
		pkg, err := check(fset, p, imp)
		if err != nil {
			return "", nil, err
		}
		checked[p.ImportPath] = pkg.Types
		if !p.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return modPath, pkgs, nil
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
