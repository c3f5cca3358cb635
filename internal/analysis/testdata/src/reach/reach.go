// Package reach seeds the reach analyzer's cases: code only tests call is
// a finding; each other way a function is reached without a call edge
// from main is not.
package reach

import "fmt"

// TestOnly is called by reach_test.go alone.
func TestOnly() int { return 1 } // want reach "reach.TestOnly is reached from no program root"

// Set.Contains is test-only too. The nested module calls strings.Contains,
// which a match by bare name would take for this method.
type Set struct{}

func (Set) Contains() bool { return false } // want reach "reach.Set.Contains is reached from no program root"

// UsedByRoot is called only from the root package's exported Lib.
func UsedByRoot() int { return 2 }

// UsedByNested is called only from the module nested below (nested/),
// which requires this one.
func UsedByNested() int { return 3 }

// spawned is only ever started by a go statement.
func spawned(done chan struct{}) { close(done) }

// Level.String completes fmt.Stringer: fmt may call it.
type Level int

func (Level) String() string { return "level" }

// fromTable is referenced from a package-level declaration only.
func fromTable() int { return 4 }

var table = map[string]func() int{"x": fromTable}

// Counter.Count is taken as a method value on the interface, never called.
type Counter interface{ Count() int }

type impl struct{}

func (impl) Count() int { return 5 }

// Waived has no caller, and a waiver.
//
//caer:allow reach kept for a reader to come
func Waived() int { return 6 }

// StaleWaiver's waiver is stale: Run calls it.
//
//caer:allow reach kept for a reader to come
func StaleWaiver() int { return 7 }

// Run is what main calls.
func Run() {
	done := make(chan struct{})
	go spawned(done)
	<-done
	var c Counter = impl{}
	count := c.Count
	_ = count
	fmt.Println(len(table), StaleWaiver())
}
