package analysis

import (
	"sort"
)

// Result is one vet run's findings.
type Result struct {
	// Diagnostics holds every finding (including suppressed ones, which
	// carry Suppressed=true), sorted by file/line/column/check.
	Diagnostics []Diagnostic
	// Packages / Files count what was analyzed.
	Packages int
	Files    int
	// Suppressions counts live allow directives (each suppressed ≥ 1
	// diagnostic).
	Suppressions int
}

// Errors returns the unsuppressed Error-severity diagnostics.
func (r *Result) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed && d.Severity == Error {
			out = append(out, d)
		}
	}
	return out
}

// Warnings returns the unsuppressed Warn-severity diagnostics.
func (r *Result) Warnings() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if !d.Suppressed && d.Severity == Warn {
			out = append(out, d)
		}
	}
	return out
}

// Run executes every configured analyzer over every package in m,
// applies //diffkv:allow suppressions, and appends the allowaudit pass
// (malformed directives, unknown checks, directives that suppressed
// nothing).
func Run(m *Module, cfg *Config) *Result {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	res := &Result{}
	report := func(pkg *Package, d Diagnostic) {
		if dir := matchDirective(pkg, d.Check, d.Pos.Filename, d.Pos.Line); dir != nil {
			dir.Used = true
			d.Suppressed = true
			d.SuppressedBy = dir.Reason
		}
		res.Diagnostics = append(res.Diagnostics, d)
	}
	for _, pkg := range m.Packages {
		res.Packages++
		res.Files += len(pkg.Files)
		for _, a := range Analyzers() {
			sev := cfg.SeverityFor(a.Name, pkg.ImportPath)
			if sev == Off || a.Run == nil {
				continue
			}
			pass := &Pass{
				Fset:     m.Fset,
				Pkg:      pkg,
				analyzer: a,
				report: func(d Diagnostic) {
					d.Severity = sev
					report(pkg, d)
				},
			}
			a.Run(pass)
		}
	}
	// deadcode sees the whole module at once, and must mark the allows it
	// honours before allowaudit counts the unused ones.
	deadcode(m, cfg, report)
	for _, pkg := range m.Packages {
		// allowaudit: malformed directives always fire; well-formed but
		// unused ones fire unless the check is Off for this package (a
		// directive cannot be "live" for a check that never runs here —
		// but keeping an allow for a disabled check is still stale).
		auditSev := cfg.SeverityFor(AllowAuditName, pkg.ImportPath)
		if auditSev == Off {
			continue
		}
		for _, dir := range pkg.Directives {
			switch {
			case dir.parseErr != "":
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Check:    AllowAuditName,
					Severity: auditSev,
					Pos:      dir.Pos,
					Message:  dir.parseErr,
				})
			case !dir.Used:
				msg := "allow directive for " + dir.Check + " suppresses nothing — remove it"
				if cfg.SeverityFor(dir.Check, pkg.ImportPath) == Off {
					msg = "allow directive for " + dir.Check + " is dead: the check is off for " + pkg.ImportPath
				}
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Check:    AllowAuditName,
					Severity: auditSev,
					Pos:      dir.Pos,
					Message:  msg,
				})
			default:
				res.Suppressions++
			}
		}
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return res
}
