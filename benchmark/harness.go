package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minReps is the least number of timed reps behind a median.
const minReps = 3

// runFunc is the timed body of one rep: fixed work on a stack prepare
// built. With a recorder it also records spans around its calls into the
// layers and derives the span-based per-layer metrics from them.
type runFunc func(rec *recorder) (*repResult, error)

// workload is one named set of inputs and the code that drives it.
type workload interface {
	// prepare builds a fresh stack and generates its inputs from the seed
	// (engines and clusters serve one run, so every rep needs its own).
	// quarter selects the quarter-size warm-up.
	prepare(seed uint64, quarter bool) (runFunc, error)
	// probes calls the layers this workload exercises directly, with the
	// workload's own shapes, and stores what it measured; rec takes the
	// spans of any phase that runs outside the timed reps.
	probes(seed uint64, rec *recorder, out map[string]float64) error
}

// repResult is what one rep produced.
type repResult struct {
	attempted int
	failures  []string // one line per failed operation or check
	digest    string   // sha256 over the ordered outputs
	spans     int      // how many spans a traced run of this rep records
	values    map[string]float64
	notes     []string // timings with their sample counts, for the printed summary
}

func (r *repResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *repResult) failf(format string, args ...any) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// memDelta is the Go runtime's work over one timed rep.
type memDelta struct {
	allocBytes, mallocs, gcCycles, gcPauseNs uint64
}

// timed is one rep with its set-up.
type timed struct {
	setupS, wallS, cpuS float64
	mem                 memDelta
	res                 *repResult
}

// timedRep sets up (build the stack, generate the inputs, run the
// quarter-size warm-up on a stack of its own, collect its garbage) and
// then times the rep's fixed work.
func timedRep(w workload, seed uint64, rec *recorder, profile string) (timed, error) {
	var t timed
	t0 := time.Now()
	warm, err := w.prepare(seed, true)
	if err != nil {
		return t, err
	}
	if _, err := warm(nil); err != nil {
		return t, fmt.Errorf("warm-up: %w", err)
	}
	body, err := w.prepare(seed, false)
	if err != nil {
		return t, err
	}
	runtime.GC()
	t.setupS = time.Since(t0).Seconds()

	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return t, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return t, err
		}
		defer pprof.StopCPUProfile()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	t1 := time.Now()
	root := rec.begin("bench.run", 0, 0)
	t.res, err = body(rec)
	rec.end(root)
	t.wallS = time.Since(t1).Seconds()
	t.cpuS = cpuSeconds() - cpu0
	runtime.ReadMemStats(&m1)
	t.mem = memDelta{
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		mallocs:    m1.Mallocs - m0.Mallocs,
		gcCycles:   uint64(m1.NumGC - m0.NumGC),
		gcPauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}
	return t, err
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM, the most resident memory the process ever held.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// result is everything one workload run measured.
type result struct {
	attempted int
	failures  []string
	digest    string
	e2e       map[string]float64
	layer     map[string]float64 // nil on an untraced run
	layers    []layerTime
	notes     []string
	tracePath string
}

// runWorkload measures one workload: untraced timed reps for --seconds
// (at least minReps) give the end-to-end metrics as medians; with trace
// set, traced reps and then the layer probes give the per-layer metrics.
func runWorkload(name string, seed uint64, seconds float64, trace bool, profDir, outDir string) (*result, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	out := &result{e2e: make(map[string]float64)}
	// rep runs one rep and folds its checks into the result; every rep of a
	// seed, traced or not, must produce the digest of the one before
	reps := 0
	rep := func(rec *recorder, profile string) (timed, error) {
		t, err := timedRep(w, seed, rec, profile)
		if err != nil {
			return t, fmt.Errorf("%s rep %d: %w", name, reps, err)
		}
		if reps > 0 && t.res.digest != out.digest {
			t.res.failf("rep %d digest %s differs from rep %d digest %s: the run is not deterministic",
				reps, t.res.digest, reps-1, out.digest)
		}
		reps++
		out.digest = t.res.digest
		out.attempted += t.res.attempted
		out.failures = append(out.failures, t.res.failures...)
		return t, nil
	}

	var setups, walls, cpus []float64
	var last timed
	for start := time.Now(); len(walls) < minReps || time.Since(start).Seconds() < seconds; {
		profile := ""
		if profDir != "" {
			if err := os.MkdirAll(profDir, 0o755); err != nil {
				return nil, err
			}
			profile = filepath.Join(profDir, fmt.Sprintf("%s.%d.pprof", name, len(walls)))
		}
		if last, err = rep(nil, profile); err != nil {
			return nil, err
		}
		setups, walls, cpus = append(setups, last.setupS), append(walls, last.wallS), append(cpus, last.cpuS)
	}
	out.notes = append(out.notes, fmt.Sprintf("host_run_s of each untraced rep: %.3f", walls))
	out.e2e["setup_s"] = median(setups)
	out.e2e["host_run_s"] = median(walls)
	out.e2e["host_peak_rss_mb"] = peakRSSMB()
	if !trace {
		return out, nil
	}

	out.layer = make(map[string]float64)
	for k, v := range last.res.values {
		out.layer[k] = v
	}
	out.layer["process.cpu_s"] = median(cpus)
	out.layer["process.alloc_mb"] = float64(last.mem.allocBytes) / (1 << 20)
	out.layer["process.mallocs_k"] = float64(last.mem.mallocs) / 1e3
	out.layer["process.gc_cycles"] = float64(last.mem.gcCycles)
	out.layer["process.gc_pause_ms"] = float64(last.mem.gcPauseNs) / 1e6
	if steps := last.res.values["serving.steps"]; steps > 0 {
		out.layer["serving.allocs_per_step"] = float64(last.mem.mallocs) / steps
		out.layer["serving.kb_per_step"] = float64(last.mem.allocBytes) / 1024 / steps
	}

	// Traced reps, each followed by an untraced one, for half as long again
	// (at least three pairs: a median of two is a mean, and one slow rep
	// moves it). This host's speed drifts by more than tracing
	// costs, so the overhead is read from reps that alternate — the last
	// end-to-end rep, then traced, untraced, traced, untraced — never from
	// a block of traced reps after a block of untraced ones. The trace file
	// keeps the last traced rep's spans. The recorder is sized to what the
	// rep records and no more: a large buffer would raise the collector's
	// heap goal and make the traced rep faster than the untraced ones
	// (decode_heavy collects 700 times a rep on a heap of a few MB).
	var rec *recorder
	var traced timed
	var tracedWalls []float64
	besideWalls := []float64{last.wallS}
	for start := time.Now(); len(tracedWalls) < minReps || time.Since(start).Seconds() < seconds/2; {
		rec = newRecorder(last.res.spans + 64)
		if traced, err = rep(rec, ""); err != nil {
			return nil, err
		}
		beside, err := rep(nil, "")
		if err != nil {
			return nil, err
		}
		tracedWalls, besideWalls = append(tracedWalls, traced.wallS), append(besideWalls, beside.wallS)
	}
	// span-derived values come from the traced rep; everything the
	// untraced rep also reports keeps its untraced value
	for k, v := range traced.res.values {
		if _, ok := out.layer[k]; !ok {
			out.layer[k] = v
		}
	}
	if len(last.res.notes) > 0 {
		out.notes = append(out.notes, last.res.notes...)
	} else {
		out.notes = append(out.notes, traced.res.notes...)
	}
	out.notes = append(out.notes,
		fmt.Sprintf("host_run_s of each traced rep: %.3f", tracedWalls),
		fmt.Sprintf("host_run_s of the untraced reps beside them: %.3f", besideWalls))
	out.layer["bench.trace_overhead_frac"] = median(tracedWalls)/median(besideWalls) - 1
	if traced.res.digest == last.res.digest {
		out.layer["bench.traced_digest_match"] = 1
	}
	out.layer["failed_frac"] = float64(len(out.failures)) / float64(out.attempted)
	if err := w.probes(seed, rec, out.layer); err != nil {
		return nil, fmt.Errorf("%s probes: %w", name, err)
	}
	out.layer["bench.spans"] = float64(rec.len())
	out.layers = selfTimes(rec.spans)
	out.tracePath, err = writeTrace(outDir, traceFile{
		Workload: name, Seed: seed, Layers: out.layers, PerLayer: out.layer, Spans: rec.spans,
	})
	return out, err
}
