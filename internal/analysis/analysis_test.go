package analysis

import (
	"go/parser"
	"go/token"
	"testing"
)

func TestSeverityFor(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		check, path string
		want        Severity
	}{
		// globalrand is a module-wide default.
		{"globalrand", "diffkv/cmd/diffkv-bench", Error},
		{"globalrand", "diffkv/internal/core", Error},
		// wallclock only in sim-time packages.
		{"wallclock", "diffkv/internal/core", Error},
		{"wallclock", "diffkv/internal/serving", Error},
		{"wallclock", "diffkv/cmd/diffkv-bench", Off},
		{"wallclock", "diffkv/internal/report", Off},
		// maprange in deterministic packages; the bare module-root rule is
		// exact and must not swallow cmd/ or examples/.
		{"maprange", "diffkv", Error},
		{"maprange", "diffkv/internal/telemetry", Error},
		{"maprange", "diffkv/cmd/diffkv-trace", Off},
		{"maprange", "diffkv/examples/scenario", Off},
		// Subpackages of a prefix rule inherit it.
		{"maprange", "diffkv/internal/experiments/sub", Error},
		// goroutine only on the step path.
		{"goroutine", "diffkv/internal/serving", Error},
		{"goroutine", "diffkv/internal/workload", Off},
		// timeunits: warn by default, error in deterministic packages.
		{"timeunits", "diffkv/cmd/diffkv-bench", Warn},
		{"timeunits", "diffkv/internal/core", Error},
		// allowaudit everywhere.
		{AllowAuditName, "diffkv/cmd/diffkv-vet", Error},
		// deadcode checks the root package and internal/; the exact root
		// rule leaves cmd/ and examples/ as roots.
		{"deadcode", "diffkv", Error},
		{"deadcode", "diffkv/cmd/diffkv-cluster", Off},
		{"deadcode", "diffkv/examples/scenario", Off},
		{"deadcode", "diffkv/internal/serving", Error},
	}
	for _, c := range cases {
		if got := cfg.SeverityFor(c.check, c.path); got != c.want {
			t.Errorf("SeverityFor(%s, %s) = %s, want %s", c.check, c.path, got, c.want)
		}
	}
}

func TestDirectiveTargetLine(t *testing.T) {
	src := []byte(`package p

func f(m map[int]int) {
	//diffkv:allow maprange -- standalone: targets the next line
	for range m {
	}
	for range m { //diffkv:allow maprange -- trailing: targets its own line
	}
}
`)
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := parseDirectives(fset, file, src)
	if len(ds) != 2 {
		t.Fatalf("parsed %d directives, want 2", len(ds))
	}
	if ds[0].TargetLine != ds[0].Pos.Line+1 {
		t.Errorf("standalone directive targets line %d, want %d (its next line)", ds[0].TargetLine, ds[0].Pos.Line+1)
	}
	if ds[1].TargetLine != ds[1].Pos.Line {
		t.Errorf("trailing directive targets line %d, want %d (its own line)", ds[1].TargetLine, ds[1].Pos.Line)
	}
	for _, d := range ds {
		if d.parseErr != "" {
			t.Errorf("directive at line %d unexpectedly malformed: %s", d.Pos.Line, d.parseErr)
		}
		if d.Check != "maprange" || d.Reason == "" {
			t.Errorf("directive at line %d parsed as check=%q reason=%q", d.Pos.Line, d.Check, d.Reason)
		}
	}
}

func TestSuffixUnit(t *testing.T) {
	cases := []struct {
		name string
		want timeUnit
	}{
		{"nowUs", unitUs},
		{"deadlineUs", unitUs},
		{"wallMs", unitMs},
		{"retry5Ms", unitMs},
		{"timeoutSec", unitSec},
		{"TimeoutSecs", unitSec},
		{"UptimeSeconds", unitSec},
		{"Us", unitUs},
		// camelCase boundary: the char before the suffix must be a
		// lower-case letter or digit, and matching is case-sensitive.
		{"Status", unitNone}, // lowercase "us" is not the Us suffix
		{"RAMs", unitNone},   // 'A' before Ms breaks the camelCase boundary
		{"MBUs", unitNone},   // 'B' before Us breaks the camelCase boundary
		{"params", unitNone}, // lowercase "ms" is not the Ms suffix
		{"millis", unitNone},
	}
	for _, c := range cases {
		if got := suffixUnit(c.name); got != c.want {
			t.Errorf("suffixUnit(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCheckNamesIncludeAllowAudit(t *testing.T) {
	names := CheckNames()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"wallclock", "globalrand", "maprange", "goroutine", "timeunits", "deadcode", AllowAuditName} {
		if !found[want] {
			t.Errorf("CheckNames() missing %q (got %v)", want, names)
		}
	}
	if a, ok := AnalyzerByName(AllowAuditName); a != nil || !ok {
		t.Errorf("AnalyzerByName(allowaudit) = %v, %v; want nil, true (runner-level pass)", a, ok)
	}
	if _, ok := AnalyzerByName("nosuchcheck"); ok {
		t.Error("AnalyzerByName accepted an unknown check")
	}
}
