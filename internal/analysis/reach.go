package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Reach reports the functions no program root reaches: code that only
// tests call. Such code costs review and, when it carries a //caer:hot
// directive, roots the hot-path audit at something the runtime never
// runs. A waiver is an ordinary //caer:allow reach <reason> on the
// function's line or the line above it.
var Reach = &Analyzer{
	Name: "reach",
	Doc: "report functions of the program's packages that no root (main, init, package-level " +
		"references, the root package's API, nested modules' uses, standard-library " +
		"interface methods) reaches: code only tests call",
	Run: runReach,
}

func runReach(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, _ := pass.Info.Defs[fd.Name].(*types.Func); pass.Unreached[fn] {
				pass.Reportf(fd.Name.Pos(), "%s is reached from no program root, only from tests if at all; delete it",
					pass.Graph.Lookup(fn).Label())
			}
		}
	}
}

// Unreached returns the functions no program root reaches, among those of
// the module's main packages and the packages they import, directly or
// not (a library no loaded command imports has no program to be dead
// in). rootPkg is the module root package's import path. The roots are:
//
//   - main and init;
//   - every function a package-level declaration references (the Run
//     closures of a table, a var _ = f);
//   - the exported functions and methods rootPkg declares;
//   - every function a Nested package references;
//   - every method that completes error or an interface of an imported
//     package outside the loaded set, which code the graph does not see
//     may call (String for fmt, Len/Less/Swap for sort, ServeHTTP, ...).
//
// The walk follows every edge kind, and also the callee of each go
// statement in a reached function, for which the graph records no edge.
// Like the hot walk it is a fact about the packages loaded: over a subset
// of the module it cannot see the callers outside it.
func (g *CallGraph) Unreached(rootPkg string) map[*types.Func]bool {
	live := make(map[*Node]bool)
	var work []*Node
	mark := func(n *Node, _ token.Pos) {
		if !live[n] {
			live[n] = true
			work = append(work, n)
		}
	}

	foreign := g.foreignInterfaces()
	for _, n := range g.nodes {
		if n.isRoot(rootPkg, foreign) {
			mark(n, token.NoPos)
		}
	}
	for _, pkg := range g.pkgs {
		for _, f := range pkg.Files {
			if pkg.Nested {
				g.eachRef(pkg.Info, f, nil, mark)
				continue
			}
			for _, decl := range f.Decls {
				if gd, ok := decl.(*ast.GenDecl); ok {
					g.eachRef(pkg.Info, gd, nil, mark)
				}
			}
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		for _, e := range n.Out {
			mark(e.To, e.Pos)
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if gs, ok := x.(*ast.GoStmt); ok {
				spawned, _ := g.targets(n.Pkg.Info, gs.Call.Fun)
				for _, to := range spawned {
					mark(to, gs.Pos())
				}
			}
			return true
		})
	}

	program := make(map[*types.Package]bool)
	var imports func(*types.Package)
	imports = func(p *types.Package) {
		if !program[p] {
			program[p] = true
			for _, imp := range p.Imports() {
				imports(imp)
			}
		}
	}
	for _, pkg := range g.pkgs {
		if !pkg.Nested && pkg.Types.Name() == "main" {
			imports(pkg.Types)
		}
	}
	dead := make(map[*types.Func]bool)
	for fn, n := range g.nodes {
		if !live[n] && program[n.Pkg.Types] {
			dead[fn] = true
		}
	}
	return dead
}

// isRoot reports whether n is a program root of its own: main, init, an
// export of the root package, or a method completing one of the foreign
// interfaces (by method name).
func (n *Node) isRoot(rootPkg string, foreign map[string][]*types.Interface) bool {
	name, rt := n.Fn.Name(), recvType(n.Fn)
	switch {
	case rt == nil:
		return name == "init" || name == "main" && n.Pkg.Types.Name() == "main" ||
			n.Pkg.Path == rootPkg && n.Fn.Exported()
	case n.Pkg.Path == rootPkg && n.Fn.Exported() && token.IsExported(recvTypeName(n.Fn)):
		return true
	}
	for _, it := range foreign[name] {
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			return true
		}
	}
	return false
}

// foreignInterfaces indexes by method name error and the exported
// interfaces of every package the loaded packages import from outside
// the loaded set (the standard library).
func (g *CallGraph) foreignInterfaces() map[string][]*types.Interface {
	out := make(map[string][]*types.Interface)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	for _, pkg := range g.pkgs {
		for _, imp := range pkg.Types.Imports() {
			if g.tpkgs[imp] || seen[imp] {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
	}
	return out
}
