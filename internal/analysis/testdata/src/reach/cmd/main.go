// Command cmd is the reach fixture's program: its imports make the root
// package and test/reach the packages reach reports in.
package main

import (
	"test"
	"test/reach"
)

func main() {
	reach.Run()
	_ = test.Version
}
