package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// parseWants extracts `// want "regex"` expectations from a fixture
// source file, keyed by 1-based line. The regex is everything between
// the quote after "want " and the last quote on the line, so it may
// contain escaped quotes.
func parseWants(t *testing.T, filename string) map[int][]string {
	t.Helper()
	data, err := os.ReadFile(filename)
	if err != nil {
		t.Fatalf("read %s: %v", filename, err)
	}
	wants := make(map[int][]string)
	for i, line := range strings.Split(string(data), "\n") {
		idx := strings.Index(line, `want "`)
		if idx < 0 {
			continue
		}
		rest := line[idx+len(`want "`):]
		end := strings.LastIndex(rest, `"`)
		if end < 0 {
			t.Fatalf("%s:%d: malformed want comment (no closing quote)", filename, i+1)
		}
		wants[i+1] = append(wants[i+1], rest[:end])
	}
	return wants
}

// checkWants matches res's live (unsuppressed) diagnostics against the
// // want comments of every file in m, both directions: an unexpected
// diagnostic fails, and so does a want with no diagnostic.
func checkWants(t *testing.T, m *Module, res *Result) {
	t.Helper()
	wants := make(map[string]map[int][]string)
	for _, pkg := range m.Packages {
		for _, fn := range pkg.Filenames {
			wants[fn] = parseWants(t, fn)
		}
	}
	for _, d := range res.Diagnostics {
		if d.Suppressed {
			continue
		}
		lineWants := wants[d.Pos.Filename][d.Pos.Line]
		matched := -1
		for i, re := range lineWants {
			ok, err := regexp.MatchString(re, d.Message)
			if err != nil {
				t.Fatalf("%s:%d: bad want regex %q: %v", d.Pos.Filename, d.Pos.Line, re, err)
			}
			if ok {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[d.Pos.Filename][d.Pos.Line] = append(lineWants[:matched], lineWants[matched+1:]...)
	}
	for fn, byLine := range wants {
		for line, res := range byLine {
			for _, re := range res {
				t.Errorf("%s:%d: expected diagnostic matching %q was not reported", fn, line, re)
			}
		}
	}
}

// TestFixtures runs every analyzer over each fixture package under
// testdata/src and holds the result to the fixture's // want comments.
func TestFixtures(t *testing.T) {
	ents, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", e.Name())
			m, _, err := LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			checkWants(t, m, Run(m, FixtureConfig()))
		})
	}
}

// loadDeadcodeFixture loads testdata/deadcode: a typed mini-module named
// diffkv, so DefaultConfig's diffkv/internal rule applies to it as it
// does to the real tree.
func loadDeadcodeFixture(t *testing.T, types bool) *Module {
	t.Helper()
	m, err := LoadModule(filepath.Join("testdata", "deadcode"), LoadOptions{Types: types})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDeadcodeFixture pins what the check reports (a func only a _test.go
// calls, the helper only it calls, a type whose every method is dead, an
// unused method or var of a live package) and what it never does
// (interface satisfaction, var initialisers, iota enumerators, generic
// instantiations, method values, allowed observation points, anything
// outside internal/), and that a stale allow reaches allowaudit. Every
// finding is an error, so diffkv-vet exits 1 on such a tree.
func TestDeadcodeFixture(t *testing.T) {
	m := loadDeadcodeFixture(t, true)
	res := Run(m, DefaultConfig())
	checkWants(t, m, res)
	for _, d := range res.Diagnostics {
		if d.Check == Deadcode.Name && !d.Suppressed && d.Severity != Error {
			t.Errorf("%s: severity %s, want error", d, d.Severity)
		}
	}
	if res.Suppressions != 1 {
		t.Errorf("Suppressions = %d, want 1 (the observation point)", res.Suppressions)
	}
}

// TestDeadcodeNoTypesNoVerdict: an untyped load skips the check, and
// reports no allow of it as stale; a load that asked for types and left
// one package without them is one error naming that package, not a
// verdict on a partial graph.
func TestDeadcodeNoTypesNoVerdict(t *testing.T) {
	if errs := Run(loadDeadcodeFixture(t, false), DefaultConfig()).Errors(); len(errs) != 0 {
		t.Errorf("untyped load reported %v", errs)
	}
	m := loadDeadcodeFixture(t, true)
	m.Packages[0].TypesInfo, m.Packages[0].TypeErr = nil, fmt.Errorf("boom")
	got := Run(m, DefaultConfig()).Errors()
	if len(got) != 1 || got[0].Check != Deadcode.Name || !strings.Contains(got[0].Message, m.Packages[0].ImportPath) || !strings.Contains(got[0].Message, "boom") {
		t.Fatalf("partly typed load: got %v, want one error naming %s", got, m.Packages[0].ImportPath)
	}
}

// TestTreeHasNoFindings runs the whole gate over the real module, so
// `go test ./...` alone keeps the tree free of determinism findings and
// of code only tests reach.
func TestTreeHasNoFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	m, err := LoadModule(filepath.Join("..", ".."), LoadOptions{Types: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(m, DefaultConfig()).Errors() {
		t.Errorf("%s", d)
	}
}

// TestNegativeFixtureSuppressesExactlyOne pins the directive contract:
// the negative fixture holds two identical maprange violations, one
// annotated. Exactly one diagnostic must survive, exactly one must be
// suppressed, and allowaudit must stay silent (the directive is used,
// well-formed and reasoned).
func TestNegativeFixtureSuppressesExactlyOne(t *testing.T) {
	m, _, err := LoadDir(filepath.Join("testdata", "src", "negative"))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(m, FixtureConfig())
	var live, suppressed, audit int
	for _, d := range res.Diagnostics {
		switch {
		case d.Check == AllowAuditName:
			audit++
		case d.Suppressed:
			suppressed++
			if d.SuppressedBy == "" {
				t.Errorf("suppressed diagnostic carries no reason: %s", d)
			}
		default:
			live++
		}
	}
	if live != 1 || suppressed != 1 || audit != 0 {
		t.Errorf("negative fixture: live=%d suppressed=%d allowaudit=%d, want 1/1/0", live, suppressed, audit)
	}
	if res.Suppressions != 1 {
		t.Errorf("Suppressions = %d, want 1", res.Suppressions)
	}
}

// TestCIViolationFixtureFails pins the scripts/vet.sh self-test: the
// injected-violation fixture must trip every AST check at Error
// severity, so a diffkv-vet run over it can never exit 0.
func TestCIViolationFixtureFails(t *testing.T) {
	m, _, err := LoadDir(filepath.Join("testdata", "ci_violation"))
	if err != nil {
		t.Fatal(err)
	}
	res := Run(m, FixtureConfig())
	hit := make(map[string]bool)
	for _, d := range res.Errors() {
		hit[d.Check] = true
	}
	for _, check := range []string{"wallclock", "globalrand", "maprange", "goroutine", "timeunits"} {
		if !hit[check] {
			t.Errorf("ci_violation fixture does not trip %s", check)
		}
	}
	if len(res.Errors()) == 0 {
		t.Fatal("ci_violation fixture produced no errors; the vet.sh gate self-test would pass vacuously")
	}
}

// TestRunDeterminism: two runs over the same fixture tree must produce
// byte-identical diagnostic listings — the vet tool is subject to its
// own rules.
func TestRunDeterminism(t *testing.T) {
	render := func() string {
		m, _, err := LoadDir(filepath.Join("testdata", "ci_violation"))
		if err != nil {
			t.Fatal(err)
		}
		res := Run(m, FixtureConfig())
		var b strings.Builder
		for _, d := range res.Diagnostics {
			fmt.Fprintf(&b, "%s [%s]\n", d, d.Severity)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Errorf("two identical runs diverged:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}
