package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// engineLoop serves one engine configuration the way every product
// stack does, as a one-instance cluster (a tracer set on cfg moves to
// the cluster, which tags the engine's events and adds its own).
func engineLoop(t *testing.T, cfg serving.Config, lc LoopConfig) *Loop {
	t.Helper()
	tr := cfg.Tracer
	cfg.Tracer = nil
	c, err := cluster.New(cluster.Config{Instances: 1, Engine: cfg, Tracer: tr, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return startLoop(t, c, lc)
}

// startLoop runs c behind a loop that is shut down when the test ends.
func startLoop(t *testing.T, c *cluster.Cluster, lc LoopConfig) *Loop {
	t.Helper()
	l := NewLoop(c, lc)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		l.Shutdown(ctx)
	})
	return l
}

func traitsCfg(seed uint64) serving.Config {
	return serving.Config{
		Model: synth.Llama3_8B, Cluster: gpusim.NewCluster(gpusim.L40(), 1),
		Traits: baselines.TraitsVLLM, Seed: seed,
	}
}

func managerCfg(seed uint64) serving.Config {
	return serving.Config{
		Model: synth.Llama3_8B, Cluster: gpusim.NewCluster(gpusim.L40(), 1),
		Traits: baselines.TraitsDiffKV(0.3), UseManager: true,
		HiFrac: 0.25, LoFrac: 0.3, Seed: seed,
	}
}

func newTestServer(t *testing.T, l *Loop) *httptest.Server {
	t.Helper()
	g, err := New(Config{Loop: l, ModelName: "Llama3-8B"})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// readSSE collects the data payloads of an SSE stream until [DONE] or EOF.
func readSSE(t *testing.T, body io.Reader) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		out = append(out, payload)
		if payload == "[DONE]" {
			break
		}
	}
	return out
}

// TestCompletionsStream is the acceptance-criteria path: a streamed
// /v1/completions delivers tokens incrementally over SSE — one chunk
// per generated token, a final chunk with finish_reason "stop" and
// usage, then [DONE].
func TestCompletionsStream(t *testing.T) {
	srv := newTestServer(t, engineLoop(t, traitsCfg(3), LoopConfig{}))
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 128, "max_tokens": 12, "stream": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	payloads := readSSE(t, resp.Body)
	if len(payloads) == 0 || payloads[len(payloads)-1] != "[DONE]" {
		t.Fatalf("stream did not end with [DONE]: %v", payloads)
	}
	chunks := payloads[:len(payloads)-1]
	// First update + 12 token chunks + final chunk
	if len(chunks) != 14 {
		t.Fatalf("got %d chunks, want 14: %v", len(chunks), chunks)
	}
	var tokens int
	var sawStop bool
	for _, p := range chunks {
		var c completionResponse
		if err := json.Unmarshal([]byte(p), &c); err != nil {
			t.Fatalf("bad chunk %q: %v", p, err)
		}
		if len(c.Choices) != 1 {
			t.Fatalf("chunk without choice: %q", p)
		}
		if c.Choices[0].Text != "" {
			tokens++
		}
		if fr := c.Choices[0].FinishReason; fr != nil && *fr == "stop" {
			sawStop = true
			if c.Usage == nil || c.Usage.CompletionTokens != 12 || c.Usage.PromptTokens != 128 {
				t.Fatalf("final chunk usage wrong: %q", p)
			}
		}
	}
	if tokens != 12 || !sawStop {
		t.Fatalf("streamed %d token chunks (want 12), stop=%v", tokens, sawStop)
	}
}

// TestCompletionsBlocking: stream=false returns one JSON body with
// usage and simulated-latency extensions.
func TestCompletionsBlocking(t *testing.T) {
	srv := newTestServer(t, engineLoop(t, traitsCfg(5), LoopConfig{}))
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt": "what is a KV cache?", "max_tokens": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var c completionResponse
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Object != "text_completion" || len(c.Choices) != 1 {
		t.Fatalf("bad body: %+v", c)
	}
	if c.Usage == nil || c.Usage.CompletionTokens != 8 || c.Usage.PromptTokens < 16 {
		t.Fatalf("bad usage: %+v", c.Usage)
	}
	if c.DiffKV == nil || c.DiffKV.TTFTMs <= 0 || c.DiffKV.E2EMs < c.DiffKV.TTFTMs {
		t.Fatalf("bad sim info: %+v", c.DiffKV)
	}
	if got := strings.Count(c.Choices[0].Text, " "); got != 8 {
		t.Fatalf("completion text has %d tokens, want 8: %q", got, c.Choices[0].Text)
	}
}

// TestCompletionsBodyLimit: the request body is bounded before it is
// read, from the prompt limit the gateway already has. A body one byte
// past the bound (~4 MiB) is a 413 however little of it is prompt; a body
// of exactly the bound, carrying the longest prompt the token limit
// admits, is served.
func TestCompletionsBodyLimit(t *testing.T) {
	srv := newTestServer(t, engineLoop(t, traitsCfg(6), LoopConfig{}))
	const limit = maxBodyBytes
	body := func(size int) string {
		head := `{"prompt": "` + strings.Repeat("x", 4*maxPromptTokens) + `",`
		tail := `"max_tokens": 4}`
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	for _, c := range []struct {
		size, want int
	}{{limit, http.StatusOK}, {limit + 1, http.StatusRequestEntityTooLarge}} {
		resp, err := http.Post(srv.URL+"/v1/completions", "application/json", strings.NewReader(body(c.size)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("%d-byte body (limit %d): status %d, want %d: %s", c.size, limit, resp.StatusCode, c.want, got)
		}
		if c.want != http.StatusOK && !strings.Contains(string(got), "invalid_request_error") {
			t.Fatalf("413 body is not an invalid_request_error: %s", got)
		}
	}
}

// TestDisconnectFreesPages is the page-count canary of the gateway's
// cancellation contract: a client that disconnects mid-stream must have
// its session cancelled and every KV page returned to the pool. The
// loop is paced so the generation is still in flight when the client
// hangs up.
func TestDisconnectFreesPages(t *testing.T) {
	// ~1 sim-second of generation stretched to ~2 wall-seconds
	l := engineLoop(t, managerCfg(7), LoopConfig{TimeScale: 2})
	srv := newTestServer(t, l)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/completions",
		strings.NewReader(`{"prompt_tokens": 1024, "max_tokens": 512, "stream": true}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// read until the prompt has run and at least one token streamed —
	// the sequence now holds KV pages
	sc := bufio.NewScanner(resp.Body)
	var chunks int
	for sc.Scan() && chunks < 2 {
		if strings.HasPrefix(sc.Text(), "data: ") {
			chunks++
		}
	}
	if used := l.Metrics().Driver.UsedKVPages; used == 0 {
		t.Fatal("no KV pages in use mid-stream; canary cannot bite")
	}
	cancel() // client disconnects

	deadline := time.Now().Add(10 * time.Second)
	for {
		d := l.Metrics().Driver
		if d.Cancelled == 1 && d.UsedKVPages == 0 && d.OpenSessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect did not free KV state: %+v", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSaturated503: cluster admission shedding maps to HTTP 503 with a
// Retry-After hint sized from the telemetry center's mean end-to-end
// latency. The queue is pre-filled through the loop with far-future
// requests the paced loop never admits, so the HTTP request
// deterministically finds every instance saturated.
func TestSaturated503(t *testing.T) {
	tc := telemetry.New(telemetry.Config{})
	cfg := cluster.Config{
		Instances: 1,
		Engine:    traitsCfg(9),
		Policy:    cluster.PolicyRoundRobin,
		// admission bound of 1: a single queued request saturates
		MaxQueueDepth: 1,
		Telemetry:     tc,
		Seed:          9,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(c, LoopConfig{TimeScale: 10})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		l.Shutdown(ctx)
	})
	if _, err := l.Open(context.Background(),
		workload.Request{ArrivalUs: 600e6, PromptLen: 128, GenLen: 8}, nil); err != nil {
		t.Fatal(err)
	}
	// two earlier completions with a mean end-to-end latency of 2.5 s:
	// one queued request on one instance drains in ceil(2.5) = 3 s
	tc.RecordCompletion(1, 0, 0.1, 0.01, 2, trace.PhaseBreakdown{DecodeUs: 2e6})
	tc.RecordCompletion(1, 0, 0.1, 0.01, 3, trace.PhaseBreakdown{DecodeUs: 3e6})
	srv := newCenterServer(t, l, tc)
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Type != "overloaded" {
		t.Fatalf("error type %q", eb.Error.Type)
	}
}

// TestNegativePrefixLen400: a negative prefix_len is a 400 before the
// request reaches the cluster. Admitted, it reaches the prefix-affinity
// router as a negative block count and panics the handler mid-dispatch,
// leaving a session cancelled that was never dispatched.
func TestNegativePrefixLen400(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Instances: 2,
		Engine:    traitsCfg(13),
		Policy:    cluster.PolicyPrefixAffinity,
		Seed:      13,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoop(c, LoopConfig{})
	srv := newTestServer(t, l)
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 256, "max_tokens": 4, "prefix_group": 1, "prefix_len": -128}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "invalid_request_error") {
		t.Fatalf("status %d, want a 400 invalid_request_error: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if m := c.Metrics(); m.Stuck() != 0 {
		t.Fatalf("cluster left with stuck %d: %+v", m.Stuck(), m)
	}
}

// TestMetricsAndHealthz: /metrics exposes the TTFT/TPOT histograms from
// the telemetry center and the goodput series after a completion, and no
// summary family; /healthz flips to 503 once the loop drains.
func TestMetricsAndHealthz(t *testing.T) {
	l, tc := clusterLoop(t, cluster.Config{Engine: traitsCfg(11), Seed: 11})
	srv := newCenterServer(t, l, tc)
	if _, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 4}`)); err != nil {
		t.Fatal(err)
	}
	body := scrape(t, srv)
	for _, want := range []string{
		"# TYPE diffkv_ttft_seconds histogram",
		`diffkv_ttft_seconds_bucket{le="+Inf"} 1`,
		"diffkv_tpot_seconds_count 1",
		"diffkv_phase_decode_seconds_count 1",
		"diffkv_goodput_tokens_per_sec",
		"diffkv_requests_completed_total 1",
		"diffkv_preemptions_total",
		"diffkv_up 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	if strings.Contains(body, " summary\n") {
		t.Fatalf("/metrics still carries a summary family:\n%s", body)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hz.StatusCode)
	}
	if err := l.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	hz, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz %d, want 503", hz.StatusCode)
	}
}

// TestMetricsSaturationHeadroomLines pins the diffkv_saturation_headroom
// family: the unlabeled cluster-wide value first, then one line per
// instance in ascending numeric order, whatever order the observation
// listed them in.
func TestMetricsSaturationHeadroomLines(t *testing.T) {
	tc := telemetry.New(telemetry.Config{})
	tc.Sample(telemetry.Observation{PerInstance: []telemetry.InstanceStats{
		{Inst: 10, ResidentTokens: 250, TokenCapacity: 1000},
		{Inst: 2, ResidentTokens: 500, TokenCapacity: 1000},
		{Inst: 1, ResidentTokens: 900, TokenCapacity: 1000},
	}})
	g, err := New(Config{Loop: engineLoop(t, traitsCfg(12), LoopConfig{}), Telemetry: tc})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var got []string
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "diffkv_saturation_headroom") {
			got = append(got, line)
		}
	}
	want := []string{
		"diffkv_saturation_headroom 0.45",
		`diffkv_saturation_headroom{inst="1"} 0.1`,
		`diffkv_saturation_headroom{inst="2"} 0.5`,
		`diffkv_saturation_headroom{inst="10"} 0.75`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("headroom lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
