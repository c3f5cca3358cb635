// Package caer is a testdata stand-in for the runtime package: its Engine
// methods carry the //caer:hot directives the hotpath analyzer roots at.
package caer

import (
	"fmt"
	"time"

	"test/comm"
)

type Engine struct {
	scratch map[string]int
	slot    *comm.Slot
	notes   []string
	ch      chan int
}

// Tick is a hot root and seeds one violation of every hotpath rule.
//
//caer:hot
func (e *Engine) Tick(own float64, name string) comm.Directive {
	buf := make([]float64, 8) // want hotpath "make() allocates in hot path"
	_ = buf
	fmt.Println("tick", own) // want hotpath "call to fmt.Println in hot path"
	now := time.Now()        // want hotpath "call to time.Now in hot path" determinism "wall-clock read time.Now"
	_ = now
	e.scratch["misses"]++          // want hotpath "map access in hot path"
	e.notes = append(e.notes, "x") // want hotpath "append() allocates in hot path"
	msg := name + "!"              // want hotpath "string concatenation allocates in hot path"
	_ = msg
	raw := []byte(name) // want hotpath "string/[]byte conversion copies in hot path"
	_ = raw
	xs := []int{1, 2} // want hotpath "slice literal allocates in hot path"
	_ = xs
	m := map[string]int{} // want hotpath "map literal allocates in hot path"
	_ = m
	p := &pair{1, 2} // want hotpath "heap allocation (&composite literal) in hot path"
	_ = p
	delete(e.scratch, "misses") // want hotpath "map delete in hot path"
	for k := range e.scratch {  // want hotpath "map iteration in hot path"
		_ = k
	}
	samples := e.slot.Samples() // want hotpath "call to allocating snapshot API Slot.Samples in hot path"
	_ = samples
	go e.drain() // want hotpath "goroutine spawn in hot path"
	e.ch <- 1    // want hotpath "channel send in hot path"
	v := <-e.ch  // want hotpath "channel receive in hot path"
	_ = v
	if own < 0 {
		// Terminal paths are off-budget: no finding for this Sprintf.
		panic(fmt.Sprintf("caer: negative miss count %f", own))
	}
	return comm.DirectiveRun
}

type pair struct{ a, b int }

func (e *Engine) drain() {}

// coldReport is not hot (no root reaches it), so allocations are fine — but
// the caer package is deterministic, and ranging a map into an ordered
// byte stream is exactly the nondeterminism the byte-identity gates catch.
func coldReport(e *Engine) string {
	parts := make([]byte, 0, 64)
	for k, v := range e.scratch { // want determinism "map iteration feeds ordered output"
		parts = append(parts, []byte(fmt.Sprintf("%s=%d;", k, v))...)
	}
	return string(parts)
}
