package analysis

import (
	"bufio"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// TelemetryDiscipline guards the telemetry spine's name contract
// (DESIGN.md §10): family names come from one inventory, the registry
// table of the "## 10." section of the DESIGN.md at the module root.
// Every name passed to Registry.Counter/Gauge/Histogram must be a
// compile-time constant that section names, so the spine, the docs, and
// the scrape surface cannot drift apart. A non-constant name defeats the
// check and is itself a finding.
//
// Where registration happens is hotpath's business: the registration
// methods lock, allocate and render labels, so a call from hot code draws
// hotpath findings along the path into them.
var TelemetryDiscipline = &Analyzer{
	Name: "telemetrydiscipline",
	Doc:  "require registered telemetry family names to be constants named by DESIGN.md §10",
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
	var inv *inventory
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := calleeFunc(pass, call); callee != nil && isRegistration(callee) && len(call.Args) > 0 {
				if inv == nil {
					inv = readInventory(filepath.Dir(pass.Fset.Position(file.Pos()).Filename))
				}
				checkMetricName(pass, inv, call.Args[0])
			}
			return true
		})
	}
}

// inventory is the family-name set of one module's DESIGN.md §10.
type inventory struct {
	design string // the DESIGN.md path, for the finding message
	names  map[string]bool
}

// familyRe matches a family name; a match ending in "_" is a prefix the
// prose names (caer_core_*), not a family.
var familyRe = regexp.MustCompile(`caer_[a-z0-9_]+`)

// readInventory finds the module root above dir (the nearest directory
// holding a go.mod) and reads the family names of its DESIGN.md's "## 10."
// section. A missing file or section is an empty inventory: every
// registration is then a finding that names where to add the family.
func readInventory(dir string) *inventory {
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			dir = d
			break
		}
		if filepath.Dir(d) == d {
			break
		}
	}
	inv := &inventory{design: filepath.Join(dir, "DESIGN.md"), names: make(map[string]bool)}
	f, err := os.Open(inv.design)
	if err != nil {
		return inv
	}
	defer f.Close()
	in := false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, "## 10.")
			continue
		}
		if in {
			for _, name := range familyRe.FindAllString(line, -1) {
				if !strings.HasSuffix(name, "_") {
					inv.names[name] = true
				}
			}
		}
	}
	return inv
}

// checkMetricName verifies the family-name argument is a constant string
// present in the spine inventory.
func checkMetricName(pass *Pass, inv *inventory, arg ast.Expr) {
	tv, ok := pass.Info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(),
			"telemetry family name is not a compile-time constant; the spine "+
				"inventory check (DESIGN.md §10) needs a literal name")
		return
	}
	if name := constant.StringVal(tv.Value); !inv.names[name] {
		pass.Reportf(arg.Pos(),
			"telemetry family %q is not in the spine inventory; add it to the "+
				"registry table of §10 in %s", name, inv.design)
	}
}
