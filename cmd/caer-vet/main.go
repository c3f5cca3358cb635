// Command caer-vet runs the repo-specific static analysis suite over the
// CAER tree (see internal/analysis). It lists the packages its patterns
// name with one `go list -export` call, type-checks them from source
// against the standard library's export data, applies every analyzer, and
// prints findings compiler-style:
//
//	file:line:col: [analyzer] message
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
//
// Usage:
//
//	caer-vet [-C dir] [-list] [-json] [-analyzer list] [-unused-suppressions] [pattern ...]
//
// Patterns are go package patterns, resolved as the go tool resolves them
// from the -C directory (default "."); the default pattern is "./...". A
// directory with its own go.mod is another module, even when named
// explicitly (vet it with -C dir ./...). -analyzer runs a
// comma-separated subset of the suite; -json emits the findings as one
// machine-readable document on stdout instead of compiler-style lines;
// -unused-suppressions additionally reports the //caer: comments the tree
// no longer needs — allows that waived nothing, //caer:hot roots another
// root already reaches, barriers no hot path meets (CI turns this on so
// dead waivers cannot accumulate).
//
// What the analyzers know about individual functions is written at the
// declarations as //caer: directives (-list prints the vocabulary): the
// per-period entry points carry //caer:hot and the hot closure is derived
// from them over the call graph of the packages loaded, so the audit of
// record is the whole module, "./...". Findings can be waived in source
// with a documented suppression comment, whose reason is mandatory:
//
//	//caer:allow <analyzer>[,<analyzer>...] <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"caer/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("caer-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", ".", "run as if started in `dir`: patterns resolve relative to it, as with the go tool, "+
		"and a directory with its own go.mod is another module (vet it with -C dir ./...)")
	list := fs.Bool("list", false, "list the analyzers and the //caer: directive vocabulary and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON document on stdout")
	subset := fs.String("analyzer", "", "comma-separated `names` of analyzers to run (default: all)")
	unused := fs.Bool("unused-suppressions", false, "report //caer: comments the tree no longer needs (stale allows, redundant roots, unreached barriers)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintln(stdout, "\ndirectives (allow anywhere; the others in a function's doc comment):")
		for _, d := range analysis.Directives() {
			fmt.Fprintf(stdout, "  %-49s %s\n", d.Syntax, d.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	analyzers, err := analysis.SelectAnalyzers(*subset)
	if err != nil {
		fmt.Fprintln(stderr, "caer-vet:", err)
		return 2
	}
	cfg := analysis.DefaultConfig()
	cfg.ReportUnusedSuppressions = *unused

	findings, err := analysis.Vet(*chdir, patterns, analyzers, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "caer-vet:", err)
		return 2
	}
	if *jsonOut {
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "caer-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "caer-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
