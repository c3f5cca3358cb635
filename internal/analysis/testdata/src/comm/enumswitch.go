package comm

func describe(d Directive) string {
	switch d { // want enumswitch "switch over Directive is not exhaustive: missing DirectivePause"
	case DirectiveRun:
		return "run"
	default:
		return "?"
	}
}

func describeRole(r Role) string {
	switch r {
	case RoleLatency:
		return "latency"
	case RoleBatch:
		return "batch"
	default:
		return "?"
	}
}

// Phase was never on any list: an enum is any named integer type of the
// module whose package declares two or more constants of it.
type Phase uint8

const (
	PhaseWarm Phase = iota
	PhaseSteady
	PhaseDrain
)

func describePhase(p Phase) string {
	switch p { // want enumswitch "switch over Phase is not exhaustive: missing PhaseDrain"
	case PhaseWarm:
		return "warm"
	case PhaseSteady:
		return "steady"
	}
	return "?"
}

// Magic has a single named constant: a magic number, not an enum, so a
// switch that handles nothing but a default is clean.
type Magic uint32

const TableMagic Magic = 0xCAE2

func checkMagic(m Magic) bool {
	switch m {
	default:
		return m == TableMagic
	}
}
