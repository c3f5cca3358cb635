package analysis

import (
	"go/types"
	"slices"
	"strings"
)

// Config holds what the analyzers need to know about the repository that
// is not a property of one declaration: which packages play a role. Facts
// about individual functions — hot roots, cold barriers, allocating APIs,
// deterministic result assembly — are //caer: directives in those functions' doc comments (Directives),
// enums are derived from the types themselves (EnumSwitch), and the
// telemetry family inventory is read from DESIGN.md (TelemetryDiscipline).
// Package
// entries are final import-path elements, so "mem" matches
// caer/internal/mem as well as a testdata package named mem.
type Config struct {
	// ModulePath is the import path of the module under analysis; set by
	// Vet. lockdiscipline scopes its error-discard rule, and enumswitch its
	// enum derivation, to declarations inside this module; reach roots the
	// API of the package at this path.
	ModulePath string

	// DeterministicPkgs lists final import-path elements whose entire
	// package must be bit-reproducible: the simulation core the byte-
	// identity gates (DESIGN.md §6, §11) depend on.
	DeterministicPkgs []string

	// EnumIgnorePrefixes lists constant-name prefixes excluded from
	// exhaustiveness (count sentinels like numEvents).
	EnumIgnorePrefixes []string

	// ReportUnusedSuppressions turns directives the tree no longer needs
	// into findings: stale //caer:allow comments, redundant //caer:hot
	// roots, unreached barriers (the -unused-suppressions flag; on in CI).
	ReportUnusedSuppressions bool
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPkgs:  []string{"machine", "mem", "sched", "caer", "fleet"},
		EnumIgnorePrefixes: []string{"num"},
	}
}

// pkgBase returns the last element of an import path.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// IsDeterministicPkg reports whether the whole package is held to the
// determinism rules.
func (c *Config) IsDeterministicPkg(pkgPath string) bool {
	return slices.Contains(c.DeterministicPkgs, pkgBase(pkgPath))
}

// isSentinelConst reports whether a constant name is a count sentinel
// excluded from exhaustiveness.
func (c *Config) isSentinelConst(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range c.EnumIgnorePrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// InModule reports whether a package path belongs to the analyzed module.
func (c *Config) InModule(pkgPath string) bool {
	return c.ModulePath != "" &&
		(pkgPath == c.ModulePath || strings.HasPrefix(pkgPath, c.ModulePath+"/"))
}

// recvTypeName extracts the bare receiver type name of a method
// declaration ("Engine" from func (e *Engine) Tick...), or "".
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
