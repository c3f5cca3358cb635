package telemetry

// The differential checks of ref_test.go, for node_test.go: it compares the
// writer and parser on a fleet node's registry and so has to live outside
// the package (internal/fleet imports this one).
var (
	CheckWriteAgainstRef = checkWriteAgainstRef
	CheckParseAgainstRef = checkParseAgainstRef
)
