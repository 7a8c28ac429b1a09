// Command diffkv-vet runs diffkv's determinism & sim-hygiene static
// analyzers (internal/analysis) over the module:
//
//	diffkv-vet ./...          # whole module, per-package severity config
//	diffkv-vet path/to/dir    # one directory, every check at error
//	diffkv-vet -list          # describe the checks
//
// Besides the per-package checks, ./... runs deadcode: every top-level
// func, method, type and var under internal/ must be reachable from a
// declaration outside it (the root package, cmd/, examples/,
// benchmark/), from main or init, or from a package-level var
// initialiser; test files are not callers. Constants, struct fields and
// methods that may satisfy an interface are never reported. It needs
// the whole module typed, so -no-types and explicit directories skip
// it. An accessor a test of live behaviour reads as its observation
// point stays under an allow whose reason names what tests see through
// it; everything else is deleted with the tests that test only it.
//
// Exit status: 0 when no error-severity diagnostics remain
// unsuppressed, 1 when at least one does (or, with -strict, a warning),
// 2 on usage or load failure. Suppress individual findings with
//
//	//diffkv:allow <check> -- <reason>
//
// trailing the offending line or alone on the line above; stale or
// reasonless directives are themselves errors (allowaudit).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"diffkv/internal/analysis"
)

func main() {
	var (
		listFlag   = flag.Bool("list", false, "list checks and exit")
		jsonFlag   = flag.Bool("json", false, "emit diagnostics as JSON")
		verbose    = flag.Bool("v", false, "report typecheck fallbacks, suppressions and timing")
		noTypes    = flag.Bool("no-types", false, "skip the go/types pass (pure syntactic analysis)")
		strictFlag = flag.Bool("strict", false, "treat warnings as errors")
	)
	flag.Parse()

	if *listFlag {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-12s %s\n", analysis.AllowAuditName, "allow directives must carry a reason and suppress a live diagnostic")
		return
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	start := time.Now()
	failed := false
	for _, arg := range args {
		var (
			mod *analysis.Module
			cfg *analysis.Config
			err error
		)
		if arg == "./..." || arg == "..." {
			cwd, cwdErr := os.Getwd()
			if cwdErr != nil {
				fatal(cwdErr)
			}
			mod, err = analysis.LoadModule(cwd, analysis.LoadOptions{Types: !*noTypes})
			cfg = analysis.DefaultConfig()
		} else {
			// An explicit directory loads standalone with every check at
			// error severity — the mode scripts/vet.sh uses to prove the
			// gate fails on an injected-violation fixture.
			mod, _, err = analysis.LoadDir(arg)
			cfg = analysis.FixtureConfig()
		}
		if err != nil {
			fatal(err)
		}
		res := analysis.Run(mod, cfg)
		printResult(res, *jsonFlag, *verbose)
		if *verbose {
			fmt.Fprintf(os.Stderr, "diffkv-vet: %s: %d packages (%d typed), %d files, %d diagnostics, %d live suppressions, %.1fs\n",
				arg, res.Packages, res.TypedPackages, res.Files,
				len(res.Diagnostics), res.Suppressions, time.Since(start).Seconds())
			for _, pkg := range mod.Packages {
				if pkg.TypeErr != nil {
					fmt.Fprintf(os.Stderr, "diffkv-vet: %s: syntactic fallback: %v\n", pkg.ImportPath, pkg.TypeErr)
				}
			}
		}
		if len(res.Errors()) > 0 || (*strictFlag && len(res.Warnings()) > 0) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func printResult(res *analysis.Result, asJSON, verbose bool) {
	if asJSON {
		type jsonDiag struct {
			Check    string `json:"check"`
			Severity string `json:"severity"`
			File     string `json:"file"`
			Line     int    `json:"line"`
			Col      int    `json:"col"`
			Message  string `json:"message"`
		}
		out := struct {
			Packages    int        `json:"packages"`
			Files       int        `json:"files"`
			Diagnostics []jsonDiag `json:"diagnostics"`
			Suppressed  int        `json:"suppressed"`
		}{Packages: res.Packages, Files: res.Files}
		for _, d := range res.Diagnostics {
			if d.Suppressed {
				out.Suppressed++
				continue
			}
			out.Diagnostics = append(out.Diagnostics, jsonDiag{
				Check: d.Check, Severity: d.Severity.String(),
				File: d.Pos.Filename, Line: d.Pos.Line, Col: d.Pos.Column,
				Message: d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(out)
		return
	}
	for _, d := range res.Diagnostics {
		switch {
		case d.Suppressed:
			if verbose {
				fmt.Printf("%s [suppressed: %s]\n", d, d.SuppressedBy)
			}
		default:
			fmt.Printf("%s [%s]\n", d, d.Severity)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "diffkv-vet:", err)
	os.Exit(2)
}
