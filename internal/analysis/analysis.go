// Package analysis implements caer-vet, a repo-specific static analysis
// suite for the CAER runtime. The analyzers mechanically check invariants
// the Go compiler cannot express but the paper's correctness story depends
// on:
//
//   - hotpath: the 1 ms sampling/detection loop must stay allocation- and
//     syscall-light, or the runtime's own overhead drowns the contention
//     signal it measures (the paper's §6 headline is <1% overhead). The ban
//     propagates transitively through the static call graph from the
//     //caer:hot roots, and findings carry the offending call path.
//   - enumswitch: switches over the module's enums (every named integer
//     type with two or more constants: comm.Directive and friends) must be
//     exhaustive — a default: that silently runs the batch application is
//     a contention-response bug.
//   - lockdiscipline: every Lock() needs a same-function Unlock, and errors
//     returned by this module's table/IO writes must not be silently
//     discarded.
//   - determinism: the simulation core and result-assembly paths must stay
//     bit-reproducible — no wall-clock reads, no process-global math/rand,
//     no map iteration feeding ordered output or order-sensitive
//     accumulators, no unordered goroutine result collection.
//   - telemetrydiscipline: every registered family name must be a constant
//     from the spine inventory (DESIGN.md §10). A registration on the hot
//     path is a hotpath finding: registering locks and allocates.
//   - suppression: //caer: comments must be well-formed (known word, known
//     analyzer, reason where one is required, attached to a function where
//     they state a fact about one), and (when enabled) must actually be
//     needed.
//
// The suite is built entirely on the standard library (go/parser, go/ast,
// go/types); it deliberately takes no dependency on golang.org/x/tools so
// the repo stays self-contained.
//
// What the analyzers know about a particular function is written at its
// declaration, as a directive line in its doc comment (Directives lists the
// vocabulary; Config holds only what is not a property of one declaration):
//
//	//caer:hot              a per-period entry point: roots the hot walk
//	//caer:cold <reason>    a reviewed barrier: the hot walk stops here
//	//caer:allocates        allocates by contract: a call from hot code is
//	                        the finding, and the walk stops here too
//	//caer:deterministic    held to the determinism rules although its
//	                        package is free to read clocks
//
// and findings can be suppressed with a documented comment:
//
//	//caer:allow <analyzer>[,<analyzer>...] <reason>
//
// which applies to the line it is written on and to the line directly
// below it (so it can trail the offending expression or sit above it).
// Reasons are mandatory; under Config.ReportUnusedSuppressions a directive
// the tree no longer needs (a stale allow, a root another root already
// reaches, a barrier no hot path meets) is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic, positioned in the source tree. Path,
// when non-empty, is the call chain from a //caer:hot root to the function
// containing the finding (hotpath).
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
	Path     []string
}

// String renders the finding the way compilers do: file:line:col: message,
// with the call path appended when present.
func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	if len(f.Path) > 0 {
		s += " [path: " + strings.Join(f.Path, " -> ") + "]"
	}
	return s
}

// Analyzer is one named invariant checker. Run inspects the package held by
// the Pass and reports findings through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one type-checked package through one analyzer, together
// with the module-wide context the dataflow analyzers need.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Cfg      *Config

	// Graph is the static call graph over every package of the run (one
	// package in unit tests, the whole module under Vet).
	Graph *CallGraph
	// Hot maps every hot-path function (the //caer:hot roots plus their
	// transitive static closure, minus barriers) to its label path from a
	// root. See CallGraph.HotSet.
	Hot map[*types.Func][]string

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPathf records a finding carrying the hot-path call chain that
// makes the position hot.
func (p *Pass) ReportPathf(pos token.Pos, path []string, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Path:     path,
	})
}

// HotPathOf returns the root-to-fn call chain if fn is in the hot-path
// closure (nil otherwise). Roots map to a single-element path.
func (p *Pass) HotPathOf(fn *types.Func) []string { return p.Hot[fn] }

// Suppression is the pseudo-analyzer that owns directive-hygiene findings
// (unknown words or analyzers, missing reasons, detached or no-longer-needed
// directives). Its Run is a no-op: the driver emits its findings while
// filtering, where usage is known.
var Suppression = &Analyzer{
	Name: "suppression",
	Doc: "require //caer: comments to be well-formed and reasoned, and report allows " +
		"that suppress nothing, roots another root reaches and barriers no hot path meets",
	Run: func(*Pass) {},
}

// Directive is one entry of the //caer: comment vocabulary.
type Directive struct {
	Syntax string // the comment as written, e.g. "//caer:cold <reason>"
	Doc    string
}

// Directives returns the //caer: vocabulary in stable order. Every word
// but allow states a fact about one function and belongs in that
// function's doc comment.
func Directives() []Directive {
	return []Directive{
		{"//caer:allow <analyzer>[,<analyzer>...] <reason>",
			"waive the named analyzers' findings on this line and the line below"},
		{"//caer:hot",
			"a per-period entry point no other root reaches: roots the hot-path walk"},
		{"//caer:cold <reason>",
			"a reviewed barrier (one-time setup, decision path): the hot-path walk stops here"},
		{"//caer:allocates",
			"allocates by contract: a call from hot code is the finding and the walk stops here"},
		{"//caer:deterministic",
			"held to the determinism rules although its package may read clocks"},
	}
}

// parseDirective splits a "//caer:<word> [args]" comment into its word and
// arguments; word is "" for any other comment.
func parseDirective(text string) (word, args string) {
	rest, ok := strings.CutPrefix(text, "//caer:")
	if !ok {
		return "", ""
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i:])
	}
	return rest, ""
}

// Analyzers returns the full caer-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotPath, EnumSwitch, LockDiscipline, Determinism,
		TelemetryDiscipline, Suppression,
	}
}

// AnalyzerNames returns the suite's analyzer names in stable order.
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// SelectAnalyzers resolves a comma-separated analyzer-name list against
// the suite. An empty selection returns the full suite.
func SelectAnalyzers(names string) ([]*Analyzer, error) {
	if strings.TrimSpace(names) == "" {
		return Analyzers(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q (have %s)",
				name, strings.Join(AnalyzerNames(), ", "))
		}
		seen[name] = true
		out = append(out, a)
	}
	return out, nil
}

// RunAnalyzers applies the given analyzers to one loaded package and
// returns the findings that survive //caer:allow suppression filtering,
// plus any suppression-hygiene findings. The call graph is built over the
// single package; use VetPackages for whole-module (cross-package)
// propagation.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, cfg *Config) []Finding {
	return VetPackages([]*Package{pkg}, analyzers, cfg)
}

// VetPackages builds the static call graph over all packages, then runs
// every analyzer over every package with the shared graph and hot-path
// closure, applies suppression filtering, and returns the surviving
// findings sorted by position.
func VetPackages(pkgs []*Package, analyzers []*Analyzer, cfg *Config) []Finding {
	graph := BuildCallGraph(pkgs)
	hot := graph.HotSet()

	active := make(map[string]bool)
	for _, a := range analyzers {
		active[a.Name] = true
	}

	var all []Finding
	for _, pkg := range pkgs {
		var findings []Finding
		for _, a := range analyzers {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Cfg:      cfg,
				Graph:    graph,
				Hot:      hot,
				findings: &findings,
			})
		}
		sup := collectSuppressions(pkg)
		findings = filterSuppressed(sup, findings)
		if active[Suppression.Name] {
			findings = append(findings, suppressionFindings(sup, cfg, active)...)
			findings = append(findings, directiveFindings(pkg, graph, hot, cfg)...)
		}
		all = append(all, findings...)
	}
	sortFindings(all)
	return all
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// suppression is one //caer:allow comment: the analyzers it names, its
// mandatory reason, the lines it covers, and whether it matched anything.
type suppression struct {
	pos       token.Position // the comment's own position
	analyzers map[string]bool
	reason    string
	used      bool
}

// covers reports whether the comment's scope includes (file, line): its
// own line and the line directly below.
func (s *suppression) covers(file string, line int) bool {
	return s.pos.Filename == file && (line == s.pos.Line || line == s.pos.Line+1)
}

// allows reports whether the comment waives findings from the analyzer.
func (s *suppression) allows(analyzer string) bool {
	return s.analyzers[analyzer] || s.analyzers["all"]
}

// collectSuppressions parses //caer:allow comments across the package.
func collectSuppressions(pkg *Package) []*suppression {
	var sups []*suppression
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, args := parseDirective(c.Text)
				if word != "allow" {
					continue
				}
				fields := strings.Fields(args)
				s := &suppression{
					pos:       pkg.Fset.Position(c.Pos()),
					analyzers: make(map[string]bool),
				}
				if len(fields) > 0 {
					for _, name := range strings.Split(fields[0], ",") {
						if name = strings.TrimSpace(name); name != "" {
							s.analyzers[name] = true
						}
					}
					s.reason = strings.Join(fields[1:], " ")
				}
				sups = append(sups, s)
			}
		}
	}
	return sups
}

// filterSuppressed drops findings covered by a //caer:allow comment and
// marks the comments that did the covering. Suppression-hygiene findings
// themselves cannot be suppressed.
func filterSuppressed(sups []*suppression, findings []Finding) []Finding {
	if len(sups) == 0 {
		return findings
	}
	kept := findings[:0]
	for _, f := range findings {
		suppressed := false
		for _, s := range sups {
			if s.covers(f.Pos.Filename, f.Pos.Line) && s.allows(f.Analyzer) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			kept = append(kept, f)
		}
	}
	return kept
}

// suppressionFindings reports hygiene violations. Always findings: a
// missing reason, and a name that is neither an analyzer of the suite nor
// "all" (a typo, or an analyzer since deleted, would otherwise waive
// nothing in silence). An allow that suppressed nothing is a finding under
// Config.ReportUnusedSuppressions, but only when every analyzer it names
// actually ran (so -analyzer subsets do not produce false staleness).
func suppressionFindings(sups []*suppression, cfg *Config, active map[string]bool) []Finding {
	known := AnalyzerNames()
	fullSuite := true
	for _, name := range known {
		if !active[name] {
			fullSuite = false
			break
		}
	}
	var out []Finding
	for _, s := range sups {
		names := sortedNames(s.analyzers)
		if len(s.analyzers) == 0 || s.reason == "" {
			out = append(out, Finding{
				Analyzer: Suppression.Name,
				Pos:      s.pos,
				Message: "suppression needs a reason: //caer:allow <analyzer> <reason> " +
					"(an unexplained allow is unreviewable)",
			})
			continue
		}
		var unknown []string
		for _, name := range names {
			if name != "all" && !slices.Contains(known, name) {
				unknown = append(unknown, name)
			}
		}
		if len(unknown) > 0 {
			out = append(out, Finding{
				Analyzer: Suppression.Name,
				Pos:      s.pos,
				Message: fmt.Sprintf("suppression names unknown analyzer %s (the suite is %s); "+
					"it waives nothing", strings.Join(unknown, ","), strings.Join(known, ", ")),
			})
			continue
		}
		if !cfg.ReportUnusedSuppressions || s.used {
			continue
		}
		ranAll := true
		for name := range s.analyzers {
			if name == "all" {
				ranAll = ranAll && fullSuite
			} else if !active[name] {
				ranAll = false
			}
		}
		if !ranAll {
			continue
		}
		out = append(out, Finding{
			Analyzer: Suppression.Name,
			Pos:      s.pos,
			Message: fmt.Sprintf("unused suppression for %s: the allow no longer "+
				"matches any finding; delete it", strings.Join(names, ",")),
		})
	}
	return out
}

// directiveFindings reports hygiene violations of the declaration-level
// directives of one package. Always findings: an unknown //caer: word, a
// fact directive outside a function's doc comment (it marks nothing, so
// the audit silently shrinks), and a //caer:cold without a reason. Under
// Config.ReportUnusedSuppressions, so are the directives the tree no
// longer needs: a //caer:hot the walk from the other roots already
// reaches, and a //caer:cold or //caer:allocates no hot function calls.
// Findings about an attached directive sit on the function's name.
func directiveFindings(pkg *Package, graph *CallGraph, hot map[*types.Func][]string, cfg *Config) []Finding {
	attached := make(map[*ast.Comment]*Node)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if n := graph.Lookup(fn); n != nil {
				for _, c := range fd.Doc.List {
					attached[c] = n
				}
			}
		}
	}

	var out []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				word, args := parseDirective(c.Text)
				if word == "" || word == "allow" {
					continue
				}
				n := attached[c]
				pos := c.Pos()
				if n != nil {
					pos = n.Decl.Name.Pos()
				}
				report := func(format string, a ...any) {
					out = append(out, Finding{
						Analyzer: Suppression.Name,
						Pos:      pkg.Fset.Position(pos),
						Message:  fmt.Sprintf(format, a...),
					})
				}
				if !slices.Contains(directiveWords(), word) {
					report("unknown directive //caer:%s (the vocabulary is %s)",
						word, strings.Join(directiveWords(), ", "))
					continue
				}
				if n == nil {
					report("//caer:%s is not in the doc comment of a function with a body; it marks nothing", word)
					continue
				}
				if word == "cold" && args == "" {
					report("//caer:cold needs a reason: //caer:cold <reason> " +
						"(an unexplained barrier is unreviewable)")
					continue
				}
				if !cfg.ReportUnusedSuppressions {
					continue
				}
				switch {
				case word == "hot" && graph.redundantRoot(n):
					report("redundant //caer:hot: %s is already reachable from another root; delete it", n.Label())
				case (word == "cold" || word == "allocates") && !metByHotWalk(n, hot):
					report("unreached //caer:%s: no hot path calls %s; delete it", word, n.Label())
				}
			}
		}
	}
	return out
}

// directiveWords lists the words of the vocabulary.
func directiveWords() []string {
	var words []string
	for _, d := range Directives() {
		word, _ := parseDirective(d.Syntax)
		words = append(words, word)
	}
	return words
}

func sortedNames(set map[string]bool) []string {
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Vet loads every package named by dirs (absolute or modRoot-relative
// package directories), builds the module-wide call graph, and runs the
// analyzers over each package, returning all surviving findings sorted by
// position.
func Vet(modRoot, modPath string, dirs []string, analyzers []*Analyzer, cfg *Config) ([]Finding, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	cfg.ModulePath = modPath
	pkgs, err := NewLoader(modRoot, modPath).loadAll(dirs)
	if err != nil {
		return nil, err
	}
	return VetPackages(pkgs, analyzers, cfg), nil
}

// loadAll loads the packages in dirs, skipping directories without
// buildable Go files.
func (l *Loader) loadAll(dirs []string) ([]*Package, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}
