package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// TelemetryDiscipline guards the telemetry spine's two contracts
// (DESIGN.md §10):
//
//  1. Registration is a setup-time act. Registry.Counter/Gauge/Histogram
//     lock, allocate, and dedup — they must never run inside a function
//     the call graph proves reachable from the per-period hot path. The
//     handles they return are the allocation-free interface; code on the
//     period loop only touches handles that already exist (package-level
//     vars like the spine's, or fields filled by setup code).
//  2. Family names come from one inventory. Every name passed to a
//     registration call must be a compile-time constant that appears in
//     Config.MetricNames — the machine-readable copy of DESIGN.md §10's
//     registry table — so the spine, the docs, and the scrape surface
//     cannot drift apart. A non-constant name defeats the check and is
//     itself a finding.
var TelemetryDiscipline = &Analyzer{
	Name: "telemetrydiscipline",
	Doc: "forbid telemetry registration inside hot-path-reachable functions and " +
		"require registered family names to be constants from the spine inventory",
	Run: runTelemetryDiscipline,
}

// registrationNameArg returns the index of the family-name argument for a
// telemetry registration callee, or -1 when the callee is not a
// registration function. Recognized: Registry.Counter/Gauge/Histogram
// (name is argument 0) and NewSpanRecorder (no name; index -2 marks
// "registration without a name to check").
func registrationNameArg(callee *types.Func) int {
	if callee.Pkg() == nil || pkgBase(callee.Pkg().Path()) != "telemetry" {
		return -1
	}
	switch recvTypeName(callee) {
	case "Registry":
		switch callee.Name() {
		case "Counter", "Gauge", "Histogram":
			return 0
		}
		return -1
	case "":
		if callee.Name() == "NewSpanRecorder" {
			return -2
		}
	}
	return -1
}

func runTelemetryDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body == nil {
					continue
				}
				fn, _ := pass.Info.Defs[d.Name].(*types.Func)
				checkRegistrations(pass, d.Body, pass.HotPathOf(fn))
			case *ast.GenDecl:
				// Package-level var initializers: the sanctioned place to
				// register. Only the name inventory applies.
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							checkRegistrations(pass, v, nil)
						}
					}
				}
			}
		}
	}
}

// checkRegistrations walks one region for registration calls. hotPath is
// non-nil when the region runs on (or is reachable from) the per-period
// hot path, in which case any registration is a finding.
func checkRegistrations(pass *Pass, region ast.Node, hotPath []string) {
	ast.Inspect(region, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		if callee == nil {
			return true
		}
		nameArg := registrationNameArg(callee)
		if nameArg == -1 {
			return true
		}
		if hotPath != nil {
			pass.ReportPathf(call.Pos(), hotPath,
				"telemetry registration %s inside a hot-path-reachable function; "+
					"register at package level or in setup code and keep only the handle here",
				callee.Name())
		}
		if nameArg < 0 {
			return true
		}
		checkMetricName(pass, call, nameArg)
		return true
	})
}

// checkMetricName verifies the family-name argument is a constant string
// present in the spine inventory.
func checkMetricName(pass *Pass, call *ast.CallExpr, idx int) {
	if idx >= len(call.Args) {
		return
	}
	arg := call.Args[idx]
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
