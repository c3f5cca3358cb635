package analysis

import (
	"strings"
	"testing"
)

// findNode returns the node labelled label, failing the test when absent.
func findNode(t *testing.T, g *CallGraph, label string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Label() == label {
			return n
		}
	}
	t.Fatalf("call graph has no node %q", label)
	return nil
}

func hasEdge(from *Node, to string, kind EdgeKind) bool {
	for _, e := range from.Out {
		if e.To.Label() == to && e.Kind == kind {
			return true
		}
	}
	return false
}

// TestCallGraphEdges pins one edge per kind over the graph fixture
// package: direct call, two-hop chain, defer, method value (on an
// interface, one per implementation), and conservative interface dispatch
// to every implementation. A go statement records no edge.
func TestCallGraphEdges(t *testing.T) {
	pkg := loadTestPkg(t, "graph")
	g := BuildCallGraph([]*Package{pkg})

	cases := []struct {
		from, to string
		kind     EdgeKind
	}{
		{"graph.Root", "graph.Mid", EdgeStatic},
		{"graph.Mid", "graph.Leaf", EdgeStatic},
		{"graph.Root", "graph.Cleanup", EdgeDefer},
		{"graph.Root", "graph.English.Greet", EdgeMethodValue},
		{"graph.Speak", "graph.English.Greet", EdgeInterface},
		{"graph.Speak", "graph.French.Greet", EdgeInterface},
		{"graph.Hold", "graph.English.Greet", EdgeMethodValue},
		{"graph.Hold", "graph.French.Greet", EdgeMethodValue},
	}
	for _, c := range cases {
		if !hasEdge(findNode(t, g, c.from), c.to, c.kind) {
			t.Errorf("missing %s edge %s -> %s", c.kind, c.from, c.to)
		}
	}
	root := findNode(t, g, "graph.Root")
	if hasEdge(root, "graph.Leaf", EdgeStatic) {
		t.Errorf("Root -> Leaf edge exists; Leaf must only be reachable through Mid")
	}
	for _, e := range root.Out {
		if e.To.Label() == "graph.Spawn" {
			t.Errorf("go statement recorded a %s edge Root -> Spawn", e.Kind)
		}
	}
}

// TestCallGraphReachability pins the BFS: shortest two-hop path, spawned
// functions not reached, interface targets reached, and barriers stopping
// the walk.
func TestCallGraphReachability(t *testing.T) {
	pkg := loadTestPkg(t, "graph")
	g := BuildCallGraph([]*Package{pkg})
	root := findNode(t, g, "graph.Root")
	follow := func(e Edge) bool { return e.Kind != EdgeMethodValue }

	paths := g.Reachable([]*Node{root}, follow, nil)

	leaf := findNode(t, g, "graph.Leaf")
	p, ok := paths[leaf]
	if !ok {
		t.Fatalf("Leaf not reachable from Root")
	}
	labels := make([]string, len(p))
	for i, n := range p {
		labels[i] = n.Label()
	}
	if got, want := strings.Join(labels, " "), "graph.Root graph.Mid graph.Leaf"; got != want {
		t.Errorf("Leaf path = %q, want %q", got, want)
	}
	if _, ok := paths[findNode(t, g, "graph.Spawn")]; ok {
		t.Errorf("Spawn reachable although only a go statement calls it")
	}
	for _, impl := range []string{"graph.English.Greet", "graph.French.Greet"} {
		if _, ok := paths[findNode(t, g, impl)]; !ok {
			t.Errorf("%s not reachable through the interface call", impl)
		}
	}

	barred := g.Reachable([]*Node{root}, follow,
		func(n *Node) bool { return n.Label() == "graph.Mid" })
	if _, ok := barred[leaf]; ok {
		t.Errorf("Leaf reachable despite barrier on Mid")
	}
	if _, ok := barred[findNode(t, g, "graph.Cleanup")]; !ok {
		t.Errorf("Cleanup (defer edge) lost when barring Mid")
	}
}
