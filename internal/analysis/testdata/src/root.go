// Package test is the seeded module's root package. The reach analyzer
// roots its exported API: Lib has no caller in the module, and is live.
package test

import "test/reach"

// Version is what the reach fixture's command reads, so the command
// imports this package and puts it in scope.
const Version = 1

// Lib is an export of the root package that nothing in the module calls.
func Lib() int { return reach.UsedByRoot() }
