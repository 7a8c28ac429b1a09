package httpapi

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"diffkv/internal/serving"
	"diffkv/internal/trace"
)

// newDebugServer wires a traced engine loop behind a gateway with the
// /debug routes mounted, returning the server and the collector.
func newDebugServer(t *testing.T, cfg serving.Config) (*httptest.Server, *trace.Collector) {
	t.Helper()
	col := trace.NewCollector(0)
	cfg.Tracer = col
	l := engineLoop(t, cfg, LoopConfig{})
	g, err := New(Config{Loop: l, ModelName: "Llama3-8B", Trace: col})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv, col
}

// TestDebugRequestSpanTree is the acceptance-criteria path: a blocking
// completion, then GET /debug/requests/{id} with the completion's own
// "cmpl-<id>", must return a span tree whose phase durations sum to the
// request's end-to-end latency within 1 microsecond.
func TestDebugRequestSpanTree(t *testing.T) {
	srv, _ := newDebugServer(t, managerCfg(5))
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 256, "max_tokens": 24}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion status %d", resp.StatusCode)
	}
	var comp completionResponse
	if err := json.NewDecoder(resp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(comp.ID, "cmpl-") {
		t.Fatalf("completion id %q", comp.ID)
	}
	if comp.DiffKV == nil || comp.DiffKV.E2EMs <= 0 {
		t.Fatalf("completion lacks sim info: %+v", comp.DiffKV)
	}
	// the diffkv block's phase fields must themselves sum to e2e
	phaseSum := comp.DiffKV.QueueMs + comp.DiffKV.PrefillMs + comp.DiffKV.DecodeMs +
		comp.DiffKV.StallMs + comp.DiffKV.SwappedMs
	if diff := math.Abs(phaseSum - comp.DiffKV.E2EMs); diff > 1e-3 {
		t.Fatalf("response phases sum %.6fms != e2e %.6fms", phaseSum, comp.DiffKV.E2EMs)
	}

	dr, err := http.Get(srv.URL + "/debug/requests/" + comp.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("debug status %d", dr.StatusCode)
	}
	var rt trace.RequestSpans
	if err := json.NewDecoder(dr.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	if !rt.Completed || rt.Root == nil || len(rt.Root.Children) == 0 {
		t.Fatalf("span tree incomplete: %+v", rt)
	}
	if diff := math.Abs(rt.Phases.TotalUs() - rt.E2EUs()); diff > 1 {
		t.Fatalf("span phase sum %.3fus != e2e %.3fus (off by %.3fus)",
			rt.Phases.TotalUs(), rt.E2EUs(), diff)
	}
	// the tree's e2e is the same latency the completion reported
	if diff := math.Abs(rt.E2EUs()/1e3 - comp.DiffKV.E2EMs); diff > 1e-3 {
		t.Fatalf("span e2e %.6fms != completion e2e %.6fms", rt.E2EUs()/1e3, comp.DiffKV.E2EMs)
	}

	// unknown request → 404; garbage id → 400
	if r, _ := http.Get(srv.URL + "/debug/requests/999999999"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown request status %d", r.StatusCode)
	}
	if r, _ := http.Get(srv.URL + "/debug/requests/nonsense"); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status %d", r.StatusCode)
	}
}

// TestDebugTraceDownload checks the Perfetto endpoint: a well-formed
// trace-event file whose embedded events round-trip through ReadEvents.
func TestDebugTraceDownload(t *testing.T) {
	srv, col := newDebugServer(t, managerCfg(6))
	if resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 128, "max_tokens": 8}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	events, err := trace.ReadEvents(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != col.Retained() {
		t.Fatalf("download carried %d events, collector holds %d", len(events), col.Retained())
	}
	if trace.FindRequestSpans(trace.BuildRequestSpans(events), events[0].Seq) == nil &&
		len(events) > 0 {
		// at least one span tree must be reconstructible from the download
		trees := trace.BuildRequestSpans(events)
		if len(trees) == 0 {
			t.Fatal("no span trees from downloaded trace")
		}
	}
}

// TestDebugEventsSSE tails the live event stream while a request runs.
func TestDebugEventsSSE(t *testing.T) {
	srv, _ := newDebugServer(t, traitsCfg(7))
	tail, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()
	if ct := tail.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 4}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// the tail must carry the request's lifecycle; read until complete
	var sawOpen, sawComplete bool
	sc := bufio.NewScanner(tail.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e trace.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad event %q: %v", line, err)
		}
		switch e.Kind {
		case trace.KindOpen:
			sawOpen = true
		case trace.KindComplete:
			sawComplete = true
		}
		if sawComplete {
			break
		}
	}
	if !sawOpen || !sawComplete {
		t.Fatalf("tail missed lifecycle: open=%v complete=%v", sawOpen, sawComplete)
	}
}

// TestDebugRoutesAbsentWithoutTrace: no collector, no /debug surface.
func TestDebugRoutesAbsentWithoutTrace(t *testing.T) {
	srv := newTestServer(t, engineLoop(t, traitsCfg(8), LoopConfig{}))
	resp, err := http.Get(srv.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsTraceAndInstanceSeries: the trace health metrics and the
// per-instance labeled gauges appear on a traced gateway's scrape.
func TestMetricsTraceAndInstanceSeries(t *testing.T) {
	srv, _ := newDebugServer(t, managerCfg(9))
	if resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 4}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"diffkv_trace_events_retained ",
		"diffkv_trace_dropped_total ",
		`diffkv_queue_depth{inst="1"}`,
		`diffkv_running_requests{inst="1"}`,
		`diffkv_kv_pages_free{inst="1"}`,
		`diffkv_kv_pages_used{inst="1"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics scrape lacks %q", want)
		}
	}
}
