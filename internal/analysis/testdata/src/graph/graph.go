// Package graph pins the call-graph builder: one construct per edge kind,
// plus a go statement that records none, exercised by TestCallGraphEdges
// and TestCallGraphReachability.
package graph

type Greeter interface{ Greet() string }

type English struct{}

func (English) Greet() string { return "hi" }

type French struct{}

func (French) Greet() string { return "salut" }

func Root() {
	Mid()
	defer Cleanup()
	go Spawn()
	e := English{}
	h := e.Greet
	_ = h
	Speak(e)
}

func Mid() { Leaf() }

func Leaf() {}

func Cleanup() {}

func Spawn() {}

func Speak(g Greeter) { _ = g.Greet() }
