// Command benchmark is the repository's layered benchmark: five named
// workloads, end-to-end metrics as medians of untraced timed reps, and a
// traced rep plus layer probes for the per-layer ledger. See README.md.
//
//	go run -C benchmark . -seed 42                       # all five, each in a fresh child process
//	go run -C benchmark . -repeat                        # twice, and fail unless the two sets agree
//	go run -C benchmark . -workload decode_heavy -cpuprofile /tmp/p
//	bash benchmark/run.sh --workload decode_heavy --seed 1 --seconds 12 --trace 0   # what the driver runs
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds, the default measuring time.
const runSeconds = 12

// Trace levels of one workload run: which metrics its last line carries.
const (
	traceOff  = 0 // end-to-end metrics from untraced reps
	traceOn   = 1 // per-layer metrics: untraced reps, then a traced rep and probes
	traceBoth = 2 // both sets (what the all-workloads command asks of its children)
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "decode_heavy", "prefill_churn":
		return engineWorkload{spec: name}, nil
	case "cluster_fleet":
		return fleetWorkload{}, nil
	case "gateway_sse":
		return &gatewayWorkload{}, nil
	case "paper_tables":
		return paperWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process (default: all five, each in a child process)")
		seed    = flag.Uint64("seed", 42, "workload seed: the only input; the same seed gives the same requests")
		seconds = flag.Float64("seconds", runSeconds, "measure untraced timed reps for this long (never fewer than three reps)")
		trace   = flag.Int("trace", traceOff, "0: end-to-end metrics; 1: per-layer metrics from a traced rep and probes; 2: both")
		repeat  = flag.Bool("repeat", false, "run the whole set twice and fail unless the two sets agree within the benchmark's bounds")
		profDir = flag.String("cpuprofile", "", "write one CPU profile per timed rep (timed bodies only) into this directory")
		outDir  = flag.String("out", "out", "directory for <workload>.trace.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	if *name != "" {
		err = child(*name, *seed, *seconds, *trace, *profDir, *outDir)
	} else {
		err = all(*seed, *seconds, *repeat, *profDir, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// line is the last line a workload run prints, the driver's contract.
type line struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// child runs one workload in this process, prints every metric by name
// with its unit, and ends with the result line.
func child(name string, seed uint64, seconds float64, trace int, profDir, outDir string) error {
	fmt.Printf("== %s  seed %d\n", name, seed)
	res, err := runWorkload(name, seed, seconds, trace != traceOff, profDir, outDir)
	if err != nil {
		return err
	}
	out := line{
		Correct:   len(res.failures) == 0,
		Attempted: res.attempted,
		Failed:    len(res.failures),
		Metrics:   make(map[string]value),
	}
	report := func(defs []metric, from map[string]float64, keep bool) {
		for _, m := range defs {
			fmt.Printf("  %-34s %14.6g %s\n", m.name, from[m.name], m.unit)
			if keep {
				out.Metrics[m.name] = value{from[m.name], m.unit}
			}
		}
	}
	report(endToEnd, res.e2e, trace != traceOn)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	if trace != traceOff {
		report(perLayer(), res.layer, true)
		fmt.Println("  self time by span name (span minus the interval its children cover):")
		for _, lt := range res.layers {
			fmt.Printf("    %-22s n=%-6d total %10.2f ms  self %10.2f ms\n", lt.Name, lt.Count, lt.TotalMs, lt.SelfMs)
		}
		fmt.Printf("  trace written to %s\n", res.tracePath)
	}
	fmt.Printf("sim_digest %s\n", res.digest)
	for i, f := range res.failures {
		if i == 10 {
			fmt.Printf("FAILED ... and %d more\n", len(res.failures)-i)
			break
		}
		fmt.Println("FAILED", f)
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if !out.Correct {
		return fmt.Errorf("%s: %d of %d operations or checks failed", name, out.Failed, out.Attempted)
	}
	return nil
}

// set is one pass over all five workloads.
type set struct {
	lines   map[string]line
	digests map[string]string
}

// all runs every workload in a fresh child process of this executable.
func all(seed uint64, seconds float64, repeat bool, profDir, outDir string) error {
	first, err := runSet(seed, seconds, profDir, outDir)
	if err != nil || !repeat {
		return err
	}
	fmt.Println("== second set")
	second, err := runSet(seed, seconds, profDir, outDir)
	if err != nil {
		return err
	}
	diffs := compareSets(first, second)
	for _, d := range diffs {
		fmt.Println("DISAGREE", d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("-repeat: the two sets disagree on %d metrics", len(diffs))
	}
	fmt.Println("-repeat: the two sets agree within the benchmark's bounds")
	return nil
}

func runSet(seed uint64, seconds float64, profDir, outDir string) (set, error) {
	s := set{lines: make(map[string]line), digests: make(map[string]string)}
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	for _, name := range workloadNames {
		args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traceBoth), "-out", outDir}
		if profDir != "" {
			args = append(args, "-cpuprofile", profDir)
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return s, err
		}
		if err := cmd.Start(); err != nil {
			return s, err
		}
		var last string
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			if d, ok := strings.CutPrefix(last, "sim_digest "); ok {
				s.digests[name] = d
			}
			if !strings.HasPrefix(last, "{") {
				fmt.Println(last)
			}
		}
		if err := cmd.Wait(); err != nil {
			return s, fmt.Errorf("%s: %w", name, err)
		}
		var l line
		if err := json.Unmarshal([]byte(last), &l); err != nil {
			return s, fmt.Errorf("%s: last line is not a result: %w", name, err)
		}
		s.lines[name] = l
	}
	return s, nil
}

// compareSets lists every metric on which two sets of one commit disagree:
// bounded metrics by more than their bound in the worse direction, exact
// ones at all, and the digests.
func compareSets(a, b set) []string {
	var diffs []string
	defs := append(append([]metric(nil), endToEnd...), perLayer()...)
	for _, name := range workloadNames {
		if a.digests[name] != b.digests[name] {
			diffs = append(diffs, fmt.Sprintf("%s sim_digest %s vs %s", name, a.digests[name], b.digests[name]))
		}
		for _, m := range defs {
			x, y := a.lines[name].Metrics[m.name].Value, b.lines[name].Metrics[m.name].Value
			if why := disagree(m, x, y); why != "" {
				diffs = append(diffs, fmt.Sprintf("%s %s: %s", name, m.name, why))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}

// disagree says how the second value of a metric breaks its bound against
// the first, or "".
func disagree(m metric, first, second float64) string {
	switch {
	case m.bound == 0:
		return ""
	case m.bound == exact:
		if first != second {
			return fmt.Sprintf("%v then %v, and it must repeat exactly", first, second)
		}
		return ""
	}
	worse := second - first
	if m.better == "higher" {
		worse = -worse
	}
	if worse > m.bound*math.Abs(first) {
		return fmt.Sprintf("%.6g then %.6g %s: worse by %.1f%%, bound %.0f%%", first, second, m.unit, 100*worse/math.Abs(first), 100*m.bound)
	}
	return ""
}
