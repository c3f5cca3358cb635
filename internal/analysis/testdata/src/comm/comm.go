// Package comm is a testdata stand-in for the real communication table:
// just enough surface for the analyzers' rules (package base name "comm",
// table types with deliberately exported raw state, reaction enums, a hot
// publish, an allocating snapshot API, and error-returning teardown).
package comm

// Directive is a reaction order; all batch applications must honour it.
type Directive int

const (
	DirectiveRun Directive = iota
	DirectivePause
)

// Role classifies a registered application.
type Role int

const (
	RoleLatency Role = iota
	RoleBatch
)

// Slot deliberately exports raw state so non-comm testdata can violate the
// single-writer access rule.
type Slot struct {
	Raw []float64
	Dir Directive
}

// Publish is the hot-path single-writer append (simplified): a clean root.
//
//caer:hot
func (s *Slot) Publish(v float64) {
	if len(s.Raw) > 0 {
		s.Raw[0] = v
	}
}

// Samples returns a copy of the window — an allocating snapshot API: a
// call from hot code is the finding, and the walk does not enter the body.
//
//caer:allocates
func (s *Slot) Samples() []float64 {
	out := make([]float64, len(s.Raw))
	copy(out, s.Raw)
	return out
}

// Close tears the slot down and can report corruption.
func (s *Slot) Close() error { return nil }
