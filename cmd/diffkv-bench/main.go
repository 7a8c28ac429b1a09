// Command diffkv-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	diffkv-bench -exp fig8            # one experiment
//	diffkv-bench -exp all             # everything (slow)
//	diffkv-bench -exp tab1 -fast      # reduced resolution
//	diffkv-bench -exp all -workers 1  # force sequential execution
//	diffkv-bench -exp tab1 -claims    # check the paper's claims on tab1
//	diffkv-bench -list                # available experiment IDs
//
// With -claims it prints each claim pinned on the experiment's tables,
// with its verdict and margin, instead of the tables, and exits 1 if any
// fails. Under -exp all it runs only the IDs that have claims.
//
// Performance is measured end to end by benchmark/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"diffkv/internal/experiments"
	"diffkv/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes to stdout and stderr, and
// returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diffkv-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "", "experiment id (fig2..fig17, tab1..tab3, or 'all')")
		fast    = fs.Bool("fast", false, "reduced resolution / sample counts")
		reps    = fs.Int("reps", 3, "repetitions per measurement")
		seed    = fs.Uint64("seed", 42, "root random seed")
		workers = fs.Int("workers", 0, "harness worker pool size (0 = GOMAXPROCS; output is identical for every value)")
		list    = fs.Bool("list", false, "list experiment ids")
		format  = fs.String("format", "text", "output format: text|csv|markdown")
		claims  = fs.Bool("claims", false, "check the paper's claims on the tables instead of printing them; exit 1 on a violation")
	)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experiments.IDs(), "\n"))
		return 0
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "usage: diffkv-bench -exp <id>|all [-fast] [-reps N] [-seed S] [-workers W] [-format F] [-claims] | -list")
		return 2
	}

	fmtSel, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.Opts{Reps: *reps, Fast: *fast, Seed: *seed, Workers: *workers}
	failed := 0
	for _, id := range ids {
		if *claims && experiments.Registry[id].Claims == nil {
			if *exp != "all" {
				fmt.Fprintf(stdout, "%s: no claims pinned\n", id)
			}
			continue
		}
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *claims {
			failed += printVerdicts(stdout, id, experiments.Registry[id].Claims(tables))
			continue
		}
		if err := report.Write(stdout, tables, fmtSel); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if fmtSel == report.FormatText {
			fmt.Fprintf(stdout, "[%s took %.1fs]\n\n", id, time.Since(start).Seconds())
		}
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "%d claim(s) failed\n", failed)
		return 1
	}
	return 0
}

// printVerdicts writes one line per claim, verdict first, and returns how
// many failed.
func printVerdicts(w io.Writer, id string, verdicts []experiments.Verdict) int {
	failed := 0
	fmt.Fprintf(w, "%s: %d claims\n", id, len(verdicts))
	for _, v := range verdicts {
		switch {
		case v.Err != nil:
			failed++
			fmt.Fprintf(w, "  ERROR  %s: %v\n", v.Claim, v.Err)
		case v.Held:
			fmt.Fprintf(w, "  ok     %+9.2f  %s\n", v.Margin, v.Claim)
		default:
			failed++
			fmt.Fprintf(w, "  FAIL   %+9.2f  %s\n", v.Margin, v.Claim)
		}
	}
	return failed
}
