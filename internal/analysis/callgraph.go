package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file builds the static call graph the hot-path walk follows (the
// hotpath analyzer's transitive propagation, and the hygiene checks on
// //caer:hot roots and barriers). The model, documented in DESIGN.md §12:
//
//   - Nodes are functions and methods *declared in the loaded packages*.
//     Standard-library callees are not nodes: a banned stdlib call is
//     caught where it textually occurs, inside whichever module function
//     the walk reaches.
//   - Static calls (identifier and selector calls that go/types resolves
//     to a concrete *types.Func) produce EdgeStatic.
//   - defer f() produces EdgeDefer: the deferred body still runs inside
//     the caller's activation, so hot-path budget applies.
//   - go f() produces no edge: the spawned body runs off the period loop,
//     and the spawn itself is already a hotpath finding.
//   - A method value or function value that is referenced without being
//     called (f := e.helper; hand it elsewhere) produces EdgeMethodValue:
//     the graph assumes it may be invoked by the holder. A method value
//     taken on an interface resolves as an interface call does, to one
//     EdgeMethodValue per implementation.
//   - A call through an interface produces one EdgeInterface per concrete
//     method declared in the loaded packages whose receiver type
//     implements the interface (the conservative "it could be any of
//     them" reading). Interfaces declared outside the loaded packages
//     (error, io.Writer, ...) are not resolved — their implementors are
//     unbounded — and reflection is out of scope entirely.
type CallGraph struct {
	nodes   map[*types.Func]*Node
	tpkgs   map[*types.Package]bool // type-checker packages of the loaded set
	methods map[string][]*Node      // method nodes by name, for interface resolution
	pkgs    []*Package              // the loaded packages, nested ones included
}

// Node is one declared function in the analyzed packages, together with
// the facts its doc comment declares about it (the //caer: directives; see
// Directives for the vocabulary).
type Node struct {
	Fn   *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Out  []Edge
	In   []Edge

	Hot           bool // //caer:hot: a per-period entry point, root of the hot walk
	Cold          bool // //caer:cold: a reviewed barrier the hot walk stops at
	Allocates     bool // //caer:allocates: a barrier whose call from hot code is the finding
	Deterministic bool // //caer:deterministic: held to the determinism rules
}

// readDirectives fills the node's facts from its declaration's doc comment.
func (n *Node) readDirectives() {
	if n.Decl.Doc == nil {
		return
	}
	for _, c := range n.Decl.Doc.List {
		switch word, _ := parseDirective(c.Text); word {
		case "hot":
			n.Hot = true
		case "cold":
			n.Cold = true
		case "allocates":
			n.Allocates = true
		case "deterministic":
			n.Deterministic = true
		}
	}
}

// Label names the node in findings and call paths: "pkg.Type.Method" or
// "pkg.Func", using the last import-path element.
func (n *Node) Label() string {
	recv := recvTypeName(n.Fn)
	if recv != "" {
		return pkgBase(n.Pkg.Path) + "." + recv + "." + n.Fn.Name()
	}
	return pkgBase(n.Pkg.Path) + "." + n.Fn.Name()
}

// EdgeKind classifies how a call edge was established.
type EdgeKind int

const (
	// EdgeStatic is a direct call to a concrete function or method.
	EdgeStatic EdgeKind = iota
	// EdgeDefer is a deferred call (runs in the caller's activation).
	EdgeDefer
	// EdgeMethodValue is a function/method value referenced without being
	// called at that site; the holder may invoke it later.
	EdgeMethodValue
	// EdgeInterface is a dynamic dispatch, conservatively resolved to
	// every in-module implementation of the interface method.
	EdgeInterface
	numEdgeKinds
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeDefer:
		return "defer"
	case EdgeMethodValue:
		return "methodvalue"
	case EdgeInterface:
		return "interface"
	default:
		return "edge?"
	}
}

var _ = numEdgeKinds

// Edge is one caller→callee relationship.
type Edge struct {
	From, To *Node
	Kind     EdgeKind
	Pos      token.Pos
}

// BuildCallGraph constructs the static call graph over the given packages.
// A Nested package contributes no nodes: it is kept for the references
// the reach analyzer roots (see Unreached).
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes:   make(map[*types.Func]*Node),
		tpkgs:   make(map[*types.Package]bool),
		methods: make(map[string][]*Node),
		pkgs:    pkgs,
	}

	// Pass 1: one node per function declaration.
	for _, pkg := range pkgs {
		if pkg.Nested {
			continue
		}
		g.tpkgs[pkg.Types] = true
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					n := &Node{Fn: fn, Decl: fd, Pkg: pkg}
					n.readDirectives()
					g.nodes[fn] = n
				}
			}
		}
	}

	// The interface-method index: every node that is a method, grouped by
	// name, for conservative dynamic-dispatch resolution.
	for _, n := range g.nodes {
		if recvType(n.Fn) != nil {
			g.methods[n.Fn.Name()] = append(g.methods[n.Fn.Name()], n)
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		if pkg.Nested {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.addEdges(g.nodes[fn], pkg, fd)
			}
		}
	}

	// Deterministic edge order (build iterates maps).
	for _, n := range g.nodes {
		sortEdges(n.Out)
		sortEdges(n.In)
	}
	return g
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Pos != es[j].Pos {
			return es[i].Pos < es[j].Pos
		}
		if es[i].Kind != es[j].Kind {
			return es[i].Kind < es[j].Kind
		}
		return es[i].To.Label() < es[j].To.Label()
	})
}

// Lookup returns the node for fn, or nil when fn is not declared in the
// loaded packages.
func (g *CallGraph) Lookup(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every node in deterministic (label) order.
func (g *CallGraph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// addEdges walks one function body and records its outgoing edges.
func (g *CallGraph) addEdges(from *Node, pkg *Package, fd *ast.FuncDecl) {
	// callFuns marks expressions that are the operator of a call (so the
	// second walk can tell method *values* from call sites).
	callFuns := make(map[ast.Expr]bool)
	seen := make(map[edgeKey]bool)

	connect := func(to *Node, kind EdgeKind, pos token.Pos) {
		k := edgeKey{to: to, kind: kind}
		if seen[k] {
			return
		}
		seen[k] = true
		e := Edge{From: from, To: to, Kind: kind, Pos: pos}
		from.Out = append(from.Out, e)
		to.In = append(to.In, e)
	}

	resolveCall := func(call *ast.CallExpr, kind EdgeKind) {
		callFuns[call.Fun] = true
		targets, dynamic := g.targets(pkg.Info, call.Fun)
		if dynamic {
			kind = EdgeInterface
		}
		for _, to := range targets {
			connect(to, kind, call.Pos())
		}
	}

	handled := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			if !handled[node] {
				resolveCall(node, EdgeStatic)
			}
		case *ast.DeferStmt:
			handled[node.Call] = true
			resolveCall(node.Call, EdgeDefer)
		case *ast.GoStmt:
			// No edge: the spawned call runs off the caller's activation.
			handled[node.Call] = true
			callFuns[node.Call.Fun] = true
		}
		return true
	})

	// Second walk: function/method values referenced outside call-operator
	// position.
	g.eachRef(pkg.Info, fd.Body, callFuns, func(to *Node, pos token.Pos) {
		connect(to, EdgeMethodValue, pos)
	})
}

// targets resolves a reference to a function (a call's operator, or a
// function or method value) to the nodes it may run: the declared
// function of a static reference, or, for a method of an interface the
// loaded packages declare, every implementation in them (dynamic).
func (g *CallGraph) targets(info *types.Info, ref ast.Expr) (nodes []*Node, dynamic bool) {
	var id *ast.Ident
	switch ref := ref.(type) {
	case *ast.Ident:
		id = ref
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[ref]; ok && isInterfaceRecv(sel.Recv()) {
			if !g.declaredInPackages(sel.Recv()) {
				return nil, true
			}
			return implementations(sel.Recv(), ref.Sel.Name, g.methods), true
		}
		id = ref.Sel
	default:
		return nil, false
	}
	if f, ok := info.Uses[id].(*types.Func); ok && g.nodes[f] != nil {
		return []*Node{g.nodes[f]}, false
	}
	return nil, false
}

// eachRef calls visit for every node a function reference under root may
// run, skipping the references in skip (call operators, which a caller
// accounts for itself).
func (g *CallGraph) eachRef(info *types.Info, root ast.Node, skip map[ast.Expr]bool, visit func(*Node, token.Pos)) {
	sels := make(map[*ast.Ident]bool)
	ref := func(e ast.Expr) {
		if skip[e] {
			return
		}
		targets, _ := g.targets(info, e)
		for _, to := range targets {
			visit(to, e.Pos())
		}
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.SelectorExpr:
			if _, ok := info.Uses[node.Sel].(*types.Func); ok {
				sels[node.Sel] = true // the selector stands for its Sel
				ref(node)
			}
		case *ast.Ident:
			if _, ok := info.Uses[node].(*types.Func); ok && !sels[node] {
				ref(node)
			}
		}
		return true
	})
}

type edgeKey struct {
	to   *Node
	kind EdgeKind
}

// recvType returns the receiver type of a method, or nil for functions.
func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

// isInterfaceRecv reports whether a selection receiver is an interface.
func isInterfaceRecv(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// declaredInPackages reports whether the interface type behind t is
// declared by one of the loaded packages (named type whose object package
// is a graph package). Unnamed interface literals count as declared.
func (g *CallGraph) declaredInPackages(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		if p, isPtr := t.(*types.Pointer); isPtr {
			return g.declaredInPackages(p.Elem())
		}
		return true // anonymous interface: local by construction
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false // error and other universe interfaces
	}
	return g.tpkgs[obj.Pkg()]
}

// implementations resolves an interface-method call to the in-module
// concrete methods that can satisfy it: same name, and the receiver's
// type (or its pointer) implements the interface.
func implementations(iface types.Type, name string, methods map[string][]*Node) []*Node {
	it, ok := iface.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var out []*Node
	for _, cand := range methods[name] {
		rt := recvType(cand.Fn)
		if rt == nil {
			continue
		}
		if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
			out = append(out, cand)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Label() < out[j].Label() })
	return out
}

// Reachable walks the graph from roots, following edges accepted by
// follow, and returns for every reached node the shortest call path from
// a root (inclusive of both ends). Roots themselves map to a one-element
// path. Nodes for which barrier returns true are not expanded (and not
// reported): they mark reviewed boundaries such as setup-only functions.
func (g *CallGraph) Reachable(roots []*Node, follow func(Edge) bool, barrier func(*Node) bool) map[*Node][]*Node {
	paths := make(map[*Node][]*Node)
	var queue []*Node
	for _, r := range roots {
		if r == nil || paths[r] != nil {
			continue
		}
		paths[r] = []*Node{r}
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if follow != nil && !follow(e) {
				continue
			}
			if paths[e.To] != nil {
				continue
			}
			if barrier != nil && barrier(e.To) {
				continue
			}
			p := make([]*Node, len(paths[n])+1)
			copy(p, paths[n])
			p[len(p)-1] = e.To
			paths[e.To] = p
			queue = append(queue, e.To)
		}
	}
	return paths
}

// followsHot reports whether hot-path propagation crosses the edge:
// static, defer and interface edges run inside the caller's activation. A
// method value is only hot if some hot function eventually calls it, which
// shows up as a static or interface edge at that call site.
func followsHot(e Edge) bool {
	switch e.Kind {
	case EdgeStatic, EdgeDefer, EdgeInterface:
		return true
	case EdgeMethodValue:
		return false
	}
	return false
}

// hotWalk is the hot-path propagation: from every //caer:hot root except
// skip, over the edges followsHot accepts, stopping at //caer:cold and
// //caer:allocates barriers.
func (g *CallGraph) hotWalk(skip *Node) map[*Node][]*Node {
	var roots []*Node
	for _, n := range g.Nodes() {
		if n.Hot && n != skip {
			roots = append(roots, n)
		}
	}
	return g.Reachable(roots, followsHot, func(n *Node) bool { return n.Cold || n.Allocates })
}

// HotSet computes the hot-path closure: the functions whose doc comment
// says //caer:hot plus everything transitively reachable from them over
// static, defer, and interface edges — stopping at the reviewed
// //caer:cold barriers and the //caer:allocates snapshot APIs, and never
// entering a spawned goroutine or crossing a method value (see followsHot).
//
// The returned map carries, per hot function, the label path from a root
// ("caer.Runtime.Step → caer.Runtime.relaunch → ..."); roots map to a
// single-element path.
func (g *CallGraph) HotSet() map[*types.Func][]string {
	hot := make(map[*types.Func][]string)
	for node, path := range g.hotWalk(nil) {
		labels := make([]string, len(path))
		for i, p := range path {
			labels[i] = p.Label()
		}
		hot[node.Fn] = labels
	}
	return hot
}

// redundantRoot reports whether a //caer:hot function would be hot without
// its directive, i.e. the walk from the other roots already reaches it.
func (g *CallGraph) redundantRoot(n *Node) bool {
	return g.hotWalk(n)[n] != nil
}

// metByHotWalk reports whether some hot function calls n over an edge the
// hot walk follows — for a barrier, whether the walk actually meets it.
func metByHotWalk(n *Node, hot map[*types.Func][]string) bool {
	for _, e := range n.In {
		if followsHot(e) && hot[e.From.Fn] != nil {
			return true
		}
	}
	return false
}
