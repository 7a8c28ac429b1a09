package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func engineLoop(t *testing.T, cfg serving.Config, lc serving.LoopConfig) *serving.Loop {
	t.Helper()
	e, err := serving.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := serving.NewLoop(e, lc)
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

func newTestServer(t *testing.T, l *serving.Loop) *httptest.Server {
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
	srv := newTestServer(t, engineLoop(t, traitsCfg(3), serving.LoopConfig{}))
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
	srv := newTestServer(t, engineLoop(t, traitsCfg(5), serving.LoopConfig{}))
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
// past the bound is a 413 however little of it is prompt; a body of
// exactly the bound, carrying the longest prompt the token limit admits,
// is served.
func TestCompletionsBodyLimit(t *testing.T) {
	g, err := New(Config{Loop: engineLoop(t, traitsCfg(6), serving.LoopConfig{}), MaxPromptTokens: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	limit := int(g.maxBodyBytes())
	body := func(size int) string {
		head := `{"prompt": "` + strings.Repeat("x", 4*64) + `",`
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
	l := engineLoop(t, managerCfg(7), serving.LoopConfig{TimeScale: 2})
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
// Retry-After hint. The queue is pre-filled through the loop with
// far-future requests the paced loop never admits, so the HTTP request
// deterministically finds every instance saturated.
func TestSaturated503(t *testing.T) {
	cfg := cluster.Config{
		Instances: 1,
		Engine:    traitsCfg(9),
		Policy:    cluster.PolicyRoundRobin,
		// admission bound of 1: a single queued request saturates
		MaxQueueDepth: 1,
		Seed:          9,
	}
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := serving.NewLoop(c, serving.LoopConfig{TimeScale: 10})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		l.Shutdown(ctx)
	})
	if _, err := l.Open(context.Background(),
		workload.Request{ArrivalUs: 600e6, PromptLen: 128, GenLen: 8}, nil); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, l)
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After %q, want \"1\"", ra)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Type != "overloaded" {
		t.Fatalf("error type %q", eb.Error.Type)
	}
}

// TestMetricsAndHealthz: /metrics exposes the TTFT/TPOT/goodput series
// after a completion; /healthz flips to 503 once the loop drains.
func TestMetricsAndHealthz(t *testing.T) {
	l := engineLoop(t, traitsCfg(11), serving.LoopConfig{})
	srv := newTestServer(t, l)
	if _, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 4}`)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`diffkv_ttft_seconds{quantile="0.5"}`,
		`diffkv_tpot_seconds{quantile="0.95"}`,
		"diffkv_goodput_tokens_per_sec",
		"diffkv_requests_completed_total 1",
		"diffkv_preemptions_total",
		"diffkv_up 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
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
