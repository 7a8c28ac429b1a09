package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"diffkv"
	"diffkv/internal/mathx"
)

func TestHighestPctlNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 0.50, true}, {99, 0.50, true}, {100, 0.90, true},
		{200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := highestPctl(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPctl(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
	}
	if s := timing(xs, "us"); !strings.Contains(s, "p95") || !strings.Contains(s, "(n=200)") {
		t.Errorf("timing of 200 samples = %q; want the p95 and the sample count", s)
	}
	if s := timing(xs[:5], "us"); !strings.Contains(s, "n=5") || strings.Contains(s, "p9") {
		t.Errorf("timing of 5 samples = %q; want the count and no tail percentile", s)
	}
}

// fakeClock is a clock only sleep and the operations move.
type fakeClock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *fakeClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	const ms = time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms, 30 * ms, 60 * ms}
	clock := &fakeClock{}
	latency := make([]time.Duration, len(due))
	late := openLoop(due, 1, clock.Now, clock.Sleep, func(i int) {
		service := ms
		if i == 1 {
			service = 25 * ms // the injected stall
		}
		clock.Sleep(service)
		latency[i] = clock.Now() - due[i]
	})
	// op 1 runs 10..35 ms; op 2 (due 20) starts at 35, op 3 (due 30) at 36;
	// by op 4 (due 60) the generator is back on schedule
	wantLate := []time.Duration{0, 0, 15 * ms, 6 * ms, 0}
	wantLatency := []time.Duration{ms, 25 * ms, 16 * ms, 7 * ms, ms}
	for i := range due {
		if late[i] != wantLate[i] {
			t.Errorf("op %d started %v late, want %v", i, late[i], wantLate[i])
		}
		if latency[i] != wantLatency[i] {
			t.Errorf("op %d latency from its due time %v, want %v (the stall's wait counts against it)", i, latency[i], wantLatency[i])
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, StartNs: 0, EndNs: 100e6},
		{Name: "child", ID: 2, Parent: 1, StartNs: 10e6, EndNs: 50e6},
		{Name: "child", ID: 3, Parent: 1, StartNs: 30e6, EndNs: 70e6},  // overlaps the first
		{Name: "child", ID: 4, Parent: 1, StartNs: 90e6, EndNs: 120e6}, // outlives the parent
		{Name: "leaf", ID: 5, Parent: 3, StartNs: 35e6, EndNs: 45e6},
	}
	got := make(map[string]layerTime)
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	// children cover 10..70 and 90..100 of the parent: 70 ms
	if p := got["parent"]; p.TotalMs != 100 || p.SelfMs != 30 {
		t.Errorf("parent total %v self %v, want 100 and 30", p.TotalMs, p.SelfMs)
	}
	if c := got["child"]; c.Count != 3 || c.TotalMs != 110 || c.SelfMs != 100 {
		t.Errorf("child n=%d total %v self %v, want 3, 110 and 100", c.Count, c.TotalMs, c.SelfMs)
	}
}

func TestRecorderNilRecordsNothing(t *testing.T) {
	var rec *recorder
	if id := rec.begin("x", 0, 0); id != 0 || rec.end(id) != 0 || rec.len() != 0 {
		t.Error("a nil recorder must record nothing")
	}
	rec = newRecorder(4)
	id := rec.begin("serving.step.gen", rootSpan, 7)
	rec.rename(id, "serving.step.prompt")
	rec.end(id)
	if len(rec.durations("serving.step.prompt")) != 1 || len(rec.durations("serving.step.gen")) != 0 {
		t.Errorf("rename did not relabel the span: %+v", rec.spans)
	}
}

func TestDigestChangesWhenOneCompletionChanges(t *testing.T) {
	comps := make([]diffkv.ServingCompletion, 50)
	for i := range comps {
		comps[i] = diffkv.ServingCompletion{
			Req: diffkv.Request{ID: i + 1, GenLen: 8}, FirstTokenUs: 1000 * float64(i), DoneUs: 1000*float64(i) + 0.1, Attempts: 1,
		}
	}
	sum := func() string {
		d := newDigest()
		for _, cp := range comps {
			d.addCompletion(cp)
		}
		return d.sum()
	}
	base := sum()
	if again := sum(); again != base {
		t.Fatalf("the digest of the same records changed: %s then %s", base, again)
	}
	comps[31].DoneUs += 1e-9 // far below anything a rounded print would show
	if sum() == base {
		t.Error("the digest did not change when one completion's DoneUs moved")
	}
}

func TestWorkloadSpecsValidate(t *testing.T) {
	entries, err := fs.ReadDir(specs, "workloads")
	if err != nil {
		t.Fatal(err)
	}
	have := make(map[string]bool)
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		have[name] = true
		for _, quarter := range []bool{false, true} {
			sc, err := loadSpec(name, 42, quarter)
			if err != nil {
				t.Errorf("%s: %v", e.Name(), err)
				continue
			}
			if err := sc.Validate(); err != nil {
				t.Errorf("%s (quarter %v): %v", e.Name(), quarter, err)
			}
			if sc.Name != name {
				t.Errorf("%s names itself %q", e.Name(), sc.Name)
			}
		}
	}
	for _, name := range workloadNames {
		if _, err := newWorkload(name); err != nil {
			t.Error(err)
		}
		// paper_tables runs experiments and core sequences, not a scenario
		if name != "paper_tables" && !have[name] {
			t.Errorf("workload %s has no spec under workloads/", name)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogue and the
// contract file at the root of the repository in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(file.Workloads), len(workloadNames))
	}
	for i, w := range file.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a reason of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	seen := make(map[string]bool)
	check := func(kind string, got []entry, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: %s %s %s, catalogue has %s %s %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound > 0.25) {
				t.Errorf("%s: bound %v, catalogue has %v (at most 0.25)", m.name, g.Bound, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric carries no bound in BENCHMARK.json", m.name)
			}
			if seen[m.name] {
				t.Errorf("%s is used twice", m.name)
			}
			seen[m.name] = true
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd, true)
	check("per_layer", file.PerLayer, perLayer(), false)
}

func TestDisagree(t *testing.T) {
	lower := metric{"host_run_s", "s", "lower", 0.10}
	higher := metric{"wall_req_per_s", "1/s", "higher", 0.10}
	count := metric{"serving.steps", "count", "lower", exact}
	probe := metric{"kvcache.gen_compact_us", "us", "lower", 0}
	for _, c := range []struct {
		m             metric
		first, second float64
		bad           bool
	}{
		{lower, 5, 5.4, false}, {lower, 5, 5.6, true}, {lower, 5, 3, false},
		{higher, 2000, 1850, false}, {higher, 2000, 1700, true}, {higher, 2000, 2600, false},
		{count, 2234, 2234, false}, {count, 2234, 2235, true},
		{probe, 100, 900, false},
	} {
		if got := disagree(c.m, c.first, c.second) != ""; got != c.bad {
			t.Errorf("%s: %v then %v: disagree = %v, want %v", c.m.name, c.first, c.second, got, c.bad)
		}
	}
}

func TestCheckExposition(t *testing.T) {
	good := "# HELP diffkv_up x\n# TYPE diffkv_up gauge\ndiffkv_up 1\ndiffkv_queue_depth{inst=\"1\"} 0\n"
	if err := checkExposition([]byte(good)); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{"", "# only comments\n", "diffkv_up one\n", "diffkv_up\n"} {
		if checkExposition([]byte(bad)) == nil {
			t.Errorf("%q parsed as a metrics exposition", bad)
		}
	}
}

func TestMakeOpsIsSeededAndMixed(t *testing.T) {
	a, b := makeOps(2000, mathx.NewRNG(7)), makeOps(2000, mathx.NewRNG(7))
	kinds := make(map[opKind]int)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between two draws of one seed", i)
		}
		kinds[a[i].kind]++
	}
	if kinds[opScrape] != 2000/scrapeEvery || kinds[opStream] < 1500 || kinds[opBlocking] < 300 {
		t.Errorf("mix %v: want %d scrapes and about 80%% streams", kinds, 2000/scrapeEvery)
	}
}
