package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
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
func loadDeadcodeFixture(t *testing.T) *Module {
	t.Helper()
	m, err := LoadModule(filepath.Join("testdata", "deadcode"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDeadcodeFixture pins what the check reports (a func only a _test.go
// calls, the helper only it calls, a type whose every method is dead, an
// unused method or var of a live package, a method that only shares a
// name with an interface method, a field only set, a field only tests
// read, a field only tests set) and what it never does (interface
// satisfaction by method set, through a pointer receiver or a promoted
// method, var initialisers, iota enumerators, generic instantiations and
// their fields, method values, a tagged field, the fields of a struct
// fmt reads or that is compared, a value field set through a pointer
// method or &x.f, positional elements of an elided-type literal, the
// fields of a dead type, allowed observation points, anything outside
// internal/), and that a stale allow reaches allowaudit. Every finding
// is an error, so diffkv-vet exits 1 on such a tree.
func TestDeadcodeFixture(t *testing.T) {
	m := loadDeadcodeFixture(t)
	res := Run(m, DefaultConfig())
	checkWants(t, m, res)
	for _, d := range res.Diagnostics {
		if d.Check == Deadcode.Name && !d.Suppressed && d.Severity != Error {
			t.Errorf("%s: severity %s, want error", d, d.Severity)
		}
	}
	if res.Suppressions != 2 {
		t.Errorf("Suppressions = %d, want 2 (the observation points)", res.Suppressions)
	}
}

// TestTypeErrorFailsLoad: a package that does not typecheck is a load
// error naming the package and its first type error, never a weaker
// syntactic pass.
func TestTypeErrorFailsLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "broken")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package broken\n\nfunc f(m map[int]int) int { return m }\n"
	if err := os.WriteFile(filepath.Join(dir, "broken.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "package broken does not typecheck") || !strings.Contains(err.Error(), "broken.go:3:") {
		t.Fatalf("LoadDir = %v, want a load error naming package broken and its type error", err)
	}
}

// TestLoadHonoursBuildConstraints: the buildtags fixture declares two
// names twice each under complementary constraints, so the load
// typechecks only with one file of each pair: doc.go and two more on
// every GOOS and GOARCH.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	_, pkg, err := LoadDir(filepath.Join("testdata", "src", "buildtags"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Filenames) != 3 {
		t.Fatalf("loaded %v, want doc.go and one file of each pair", pkg.Filenames)
	}
}

// TestTreeHasNoFindings runs the whole gate over the real module, so
// `go test ./...` alone keeps the tree free of determinism findings and
// of code only tests reach.
func TestTreeHasNoFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	m, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(m, DefaultConfig()).Errors() {
		t.Errorf("%s", d)
	}
}

// loadTree loads the real module once for the tests that inspect it.
var loadTree = sync.OnceValues(func() (*Module, error) {
	return LoadModule(filepath.Join("..", ".."))
})

// TestNoDeterminismExceptions pins the exception-free determinism
// contract: no package where wallclock or goroutine is an error carries
// an allow directive for that check. The one real-time driver, the
// Loop, lives in httpapi, so a wall-clock read or a goroutine in a
// simulated-time package is always a finding, never a suppression.
func TestNoDeterminismExceptions(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module")
	}
	m, err := loadTree()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	strict := map[string]int{}
	for _, pkg := range m.Packages {
		for _, check := range []string{"wallclock", "goroutine"} {
			if cfg.SeverityFor(check, pkg.ImportPath) == Error {
				strict[pkg.ImportPath]++
			}
		}
		for _, d := range pkg.Directives {
			if (d.Check == "wallclock" || d.Check == "goroutine") && cfg.SeverityFor(d.Check, pkg.ImportPath) == Error {
				t.Errorf("%s: //diffkv:allow %s in %s, where %s is an error", d.Pos, d.Check, pkg.ImportPath, d.Check)
			}
		}
	}
	for _, p := range []string{"diffkv/internal/serving", "diffkv/internal/cluster"} {
		if strict[p] != 2 {
			t.Errorf("%s: wallclock and goroutine must both be errors there (%d of 2 are)", p, strict[p])
		}
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
// injected-violation fixture typechecks, and trips every per-package
// check at Error severity, so a diffkv-vet run over it exits 1.
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
	for _, check := range []string{"wallclock", "globalrand", "maprange", "goroutine", "timeunits", "foreach"} {
		if !hit[check] {
			t.Errorf("ci_violation fixture does not trip %s", check)
		}
	}
	if len(res.Errors()) == 0 {
		t.Fatal("ci_violation fixture produced no errors; the vet.sh gate self-test would pass vacuously")
	}
}

// renderCIViolation loads the ci_violation fixture and lists its
// diagnostics, one per line.
func renderCIViolation() (string, error) {
	m, _, err := LoadDir(filepath.Join("testdata", "ci_violation"))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, d := range Run(m, FixtureConfig()).Diagnostics {
		fmt.Fprintf(&b, "%s [%s]\n", d, d.Severity)
	}
	return b.String(), nil
}

// TestRunDeterminism: two runs over the same fixture tree must produce
// byte-identical diagnostic listings — the vet tool is subject to its
// own rules.
func TestRunDeterminism(t *testing.T) {
	a, err := renderCIViolation()
	if err != nil {
		t.Fatal(err)
	}
	b, err := renderCIViolation()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("two identical runs diverged:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}

// TestConcurrentLoads: every load of a process shares one FileSet and
// one standard-library importer, so loads running at once must each
// list what a load alone does. They run first, so that run alone with
// -race they import the standard library concurrently.
func TestConcurrentLoads(t *testing.T) {
	got := make([]string, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = renderCIViolation()
		}()
	}
	wg.Wait()
	want, err := renderCIViolation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if errs[i] != nil {
			t.Errorf("load %d: %v", i, errs[i])
		} else if got[i] != want {
			t.Errorf("load %d diverged from a load alone:\n--- alone\n%s--- concurrent\n%s", i, want, got[i])
		}
	}
}
