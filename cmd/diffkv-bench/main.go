// Command diffkv-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	diffkv-bench -exp fig8            # one experiment
//	diffkv-bench -exp all             # everything (slow)
//	diffkv-bench -exp tab1 -fast      # reduced resolution
//	diffkv-bench -exp all -workers 1  # force sequential execution
//	diffkv-bench -list                # available experiment IDs
//
// Performance is measured end to end by benchmark/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"diffkv/internal/experiments"
	"diffkv/internal/report"
)

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (fig2..fig17, tab1..tab3, or 'all')")
		fast    = flag.Bool("fast", false, "reduced resolution / sample counts")
		reps    = flag.Int("reps", 3, "repetitions per measurement")
		seed    = flag.Uint64("seed", 42, "root random seed")
		workers = flag.Int("workers", 0, "harness worker pool size (0 = GOMAXPROCS; output is identical for every value)")
		list    = flag.Bool("list", false, "list experiment ids")
		format  = flag.String("format", "text", "output format: text|csv|markdown")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: diffkv-bench -exp <id>|all [-fast] [-reps N] [-seed S] [-workers W] [-format F] | -list")
		os.Exit(2)
	}

	fmtSel, err := report.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	opts := experiments.Opts{Reps: *reps, Fast: *fast, Seed: *seed, Workers: *workers}
	for _, id := range ids {
		start := time.Now()
		tables, err := experiments.Run(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := report.Write(os.Stdout, tables, fmtSel); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if fmtSel == report.FormatText {
			fmt.Printf("[%s took %.1fs]\n\n", id, time.Since(start).Seconds())
		}
	}
}
