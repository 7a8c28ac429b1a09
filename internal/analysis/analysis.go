// Package analysis is diffkv's project-specific static-analysis
// framework ("diffkv-vet"). The simulator's value rests on determinism —
// the same scenario + seed must reproduce bit-identical completions,
// alert timelines and fault schedules — and this package encodes those
// rules as mechanical checks instead of hoping a pinned test flakes at
// the right moment:
//
//	wallclock  — no wall-clock reads (time.Now/Sleep/Since/...) in
//	             sim-time packages; the Loop pacing path and host-timing
//	             benchmarks carry explicit allow directives.
//	globalrand — no top-level math/rand functions outside tests; all
//	             randomness flows through an explicitly seeded *rand.Rand.
//	maprange   — map iteration in deterministic packages must go through
//	             sorted keys (or collect keys for sorting, or carry a
//	             reasoned allow directive).
//	goroutine  — no `go` statements or channel sends inside the
//	             event-loop step path.
//	foreach    — a closure handed to mathx.ForEach (or to a wrapper
//	             that passes its func straight on) writes a variable
//	             declared outside it only as v[e], e built from the
//	             closure's own variables, and never into a shared map.
//	timeunits  — no arithmetic/comparisons directly mixing identifiers
//	             with different time-unit suffixes (Us/Ms/Sec).
//	deadcode   — no top-level func, method, type or var in the root
//	             package or under internal/ that non-test code cannot
//	             reach, and no struct field there that it never reads
//	             or never sets. Roots: cmd/, examples/scenario,
//	             benchmark/, main, init and package-level var
//	             initialisers. Never reported: constants, fields
//	             reflection may touch, and the methods a live type uses
//	             to implement an interface (matched by method set, by
//	             name only where a generic is uninstantiated). An
//	             accessor or field a test of live behaviour reads stays
//	             under an allow naming it.
//	allowaudit — every //diffkv:allow directive must carry a reason and
//	             suppress at least one live diagnostic, so suppressions
//	             self-clean as the code they excuse disappears.
//
// The framework is stdlib-only: go/ast + go/parser + go/token, and
// go/types with the source importer for standard-library imports. Every
// load is typechecked, fixtures included; a package that does not
// typecheck is a load error, never a weaker syntactic pass. Suppression
// is per line via
//
//	//diffkv:allow <check> -- <reason>
//
// either trailing the offending line or on its own line immediately
// above it; the reason is mandatory and stale directives are themselves
// diagnostics (see allowaudit).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity ranks a diagnostic: Off disables a check for a package,
// Warn reports without failing the build, Error fails diffkv-vet.
type Severity int

const (
	// Off disables the check entirely.
	Off Severity = iota
	// Warn reports the diagnostic but does not affect the exit code.
	Warn
	// Error reports the diagnostic and makes diffkv-vet exit non-zero.
	Error
)

// String returns "off", "warn" or "error".
func (s Severity) String() string {
	switch s {
	case Off:
		return "off"
	case Warn:
		return "warn"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// Diagnostic is one finding: a check name, a position and a message.
// Severity is resolved from the per-package config at report time.
type Diagnostic struct {
	Check    string
	Severity Severity
	Pos      token.Position
	Message  string
	// Suppressed marks diagnostics matched by an allow directive; the
	// runner keeps them (they are what proves a directive is live) but
	// printers and exit codes skip them.
	Suppressed bool
	// SuppressedBy is the reason text of the matching directive.
	SuppressedBy string
}

// String formats the diagnostic the way compilers do:
// path:line:col: check: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check over a single package.
type Analyzer struct {
	// Name is the check name used in config and allow directives.
	Name string
	// Doc is a one-line description for `diffkv-vet -list`.
	Doc string
	// Run inspects pass.Pkg and reports findings through pass.Reportf.
	// It is nil for Deadcode, which the runner executes once over the
	// whole module.
	Run func(pass *Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	// Fset maps token.Pos to file positions for every file in the package.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package

	analyzer *Analyzer
	report   func(Diagnostic)
}

// Reportf records a diagnostic for the current analyzer at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Package is a parsed and typechecked package.
type Package struct {
	// ImportPath is the slash-separated import path ("diffkv/internal/core").
	ImportPath string
	// Files are the parsed non-test source files, sorted by filename.
	Files []*ast.File
	// Filenames[i] is the path Files[i] was parsed from.
	Filenames []string
	// Types / TypesInfo are the go/types view of Files; a load that
	// could not fill them failed.
	Types     *types.Package
	TypesInfo *types.Info
	// Directives are the //diffkv:allow comments found in the package.
	Directives []*Directive
}

// registry of built-in analyzers, ordered for stable output.
var builtins []*Analyzer

func register(a *Analyzer) *Analyzer {
	builtins = append(builtins, a)
	sort.Slice(builtins, func(i, j int) bool { return builtins[i].Name < builtins[j].Name })
	return a
}

// Analyzers returns the built-in analyzers sorted by name. AllowAudit is
// not in the list: it is a runner-level pass over directives, not a
// per-package AST walk, but its name is still valid in config. Deadcode
// is in it, for its name and Doc, with a nil Run.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(builtins))
	copy(out, builtins)
	return out
}

// AnalyzerByName resolves a check name ("" analyzer for allowaudit,
// which has no AST pass). ok is false for unknown names.
func AnalyzerByName(name string) (a *Analyzer, ok bool) {
	if name == AllowAuditName {
		return nil, true
	}
	for _, b := range builtins {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// CheckNames returns every valid check name (analyzers + allowaudit).
func CheckNames() []string {
	out := make([]string, 0, len(builtins)+1)
	for _, a := range builtins {
		out = append(out, a.Name)
	}
	out = append(out, AllowAuditName)
	sort.Strings(out)
	return out
}
