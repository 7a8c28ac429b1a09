package main

import (
	"bytes"
	"strings"
	"testing"

	"diffkv/internal/experiments"
)

// -claims prints one verdict line per pinned claim and sets the exit
// code from them; an ID without claims runs nothing.
func TestClaimsFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "fig13", "-fast", "-reps", "1", "-claims"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr %q, stdout:\n%s", code, errOut.String(), out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "fig13: 4 claims" || len(lines) != 5 {
		t.Fatalf("stdout:\n%s", out.String())
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "  ok ") || !strings.Contains(l, "speedup ≥ 100x") {
			t.Errorf("verdict line %q", l)
		}
	}

	out.Reset()
	if code := run([]string{"-exp", "fig2", "-claims"}, &out, &errOut); code != 0 || out.String() != "fig2: no claims pinned\n" {
		t.Fatalf("fig2 -claims: exit %d, stdout %q", code, out.String())
	}

	out.Reset()
	failed := printVerdicts(&out, "x", []experiments.Verdict{
		{Claim: "holds", Margin: 2, Held: true},
		{Claim: "fails", Margin: -0.5},
	})
	if failed != 1 || !strings.Contains(out.String(), "  FAIL       -0.50  fails") {
		t.Fatalf("printVerdicts: %d failed, stdout:\n%s", failed, out.String())
	}
}
