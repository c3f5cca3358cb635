package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// TelemetryDiscipline guards the telemetry spine's name contract
// (DESIGN.md §10): family names come from one inventory. Every name passed
// to Registry.Counter/Gauge/Histogram must be a compile-time constant that
// appears in Config.MetricNames — the machine-readable copy of DESIGN.md
// §10's registry table — so the spine, the docs, and the scrape surface
// cannot drift apart. A non-constant name defeats the check and is itself a
// finding.
//
// Where registration happens is hotpath's business: the registration
// methods lock, allocate and render labels, so a call from hot code draws
// hotpath findings along the path into them.
var TelemetryDiscipline = &Analyzer{
	Name: "telemetrydiscipline",
	Doc:  "require registered telemetry family names to be constants from the spine inventory",
	Run:  runTelemetryDiscipline,
}

// isRegistration reports whether the callee is a telemetry registration
// method, whose argument 0 is the family name.
func isRegistration(callee *types.Func) bool {
	if callee.Pkg() == nil || pkgBase(callee.Pkg().Path()) != "telemetry" ||
		recvTypeName(callee) != "Registry" {
		return false
	}
	switch callee.Name() {
	case "Counter", "Gauge", "Histogram":
		return true
	}
	return false
}

func runTelemetryDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pass, call); callee != nil && isRegistration(callee) && len(call.Args) > 0 {
				checkMetricName(pass, call.Args[0])
			}
			return true
		})
	}
}

// checkMetricName verifies the family-name argument is a constant string
// present in the spine inventory.
func checkMetricName(pass *Pass, arg ast.Expr) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"telemetry family name is not a compile-time constant; the spine "+
				"inventory check (DESIGN.md §10) needs a literal name")
		return
	}
	name := constant.StringVal(tv.Value)
	if !pass.Cfg.IsMetricName(name) {
		pass.Reportf(arg.Pos(),
			"telemetry family %q is not in the spine inventory; add it to "+
				"DESIGN.md §10's registry table and the caer-vet MetricNames inventory",
			name)
	}
}
