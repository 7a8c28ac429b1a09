package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"diffkv"
	"diffkv/internal/httpapi"
	"diffkv/internal/mathx"
	"diffkv/internal/serving"
)

// gatewayWorkload is gateway_sse, the only real-time workload: an
// in-process HTTP server over httpapi.Gateway → serving.Loop (unpaced) →
// a 4-instance traits cluster, driven by this process over two keep-alive
// connections.
//
// The connections are in-memory pipes, not loopback TCP. Over TCP the
// kernel's socket path was 45 % of the rep and the part of it most exposed
// to this shared host: when the host slowed, the TCP rep slowed by 30-40 %
// against 15-30 % for the same rep over pipes, which put its run-to-run
// spread (21-30 %) beyond the widest bound the driver allows. Everything
// this repository owns — request parsing, SSE marshal and flush per token,
// the Loop lock hand-off, cluster session mode — runs the same either way.
//
// The client is closed-loop in the timed reps (each connection sends its
// next request when the previous one completes, so a slower server is
// offered less) and open-loop in the latency phase (requests are due on a
// fixed Poisson schedule whatever the server does, latency is timed from
// the due time, and how late the generator ran is reported).
type gatewayWorkload struct {
	// streamUsP50 is the last untraced rep's closed-loop stream request
	// p50, kept for probes to set against the same request's time without
	// HTTP.
	streamUsP50 float64
}

const (
	gatewaySpec = "gateway_sse"
	// connections is the client's whole concurrency: two keep-alive
	// connections, one goroutine each — this host has two cores, shared
	// with the server.
	connections = 2
	// closedLoopOps is the fixed work of one timed rep.
	closedLoopOps = 4000
	// The open-loop phase offers a constant 1200 req/s for 6 s, about 30 %
	// of what the closed loop measured here. It is a constant of the
	// benchmark, never derived from a measurement at run time.
	openLoopRate    = 1200.0
	openLoopSeconds = 6.0
	// Every request asks for 128 tokens over a 512-token prompt; four in
	// five stream, and the streams share 16 prefix groups.
	genTokens    = 128
	promptTokens = 512
	prefixTokens = 256
	prefixGroups = 16
	streamShare  = 0.8
	scrapeEvery  = 500 // every 500th operation is GET /metrics
	// A 128-token stream is the first-token event, 128 token chunks, the
	// final usage chunk and [DONE].
	chunksPerStream = genTokens + 3
)

type opKind int

const (
	opStream opKind = iota
	opBlocking
	opScrape
)

type op struct {
	kind  opKind
	group int
}

// makeOps draws the request mix from the seed.
func makeOps(n int, rng *mathx.RNG) []op {
	ops := make([]op, n)
	for i := range ops {
		switch {
		case (i+1)%scrapeEvery == 0:
			ops[i].kind = opScrape
		case rng.Float64() < streamShare:
			ops[i] = op{opStream, 1 + rng.Intn(prefixGroups)}
		default:
			ops[i] = op{opBlocking, 1 + rng.Intn(prefixGroups)}
		}
	}
	return ops
}

// opResult is what the client saw of one operation. Times are offsets
// from the phase start.
type opResult struct {
	kind                 opKind
	status               int
	sent, first, finish  time.Duration
	chunks, bytes, usage int
	done                 bool // stream ended with [DONE]
	err                  error
}

// failure says why the operation counts as failed, or "".
func (r opResult) failure() string {
	switch {
	case r.err != nil:
		return r.err.Error()
	case r.status != http.StatusOK:
		return fmt.Sprintf("status %d", r.status)
	case r.kind == opStream && (r.chunks != chunksPerStream || !r.done):
		return fmt.Sprintf("stream carried %d data lines (want %d), [DONE] %v", r.chunks, chunksPerStream, r.done)
	case r.kind != opScrape && r.usage != genTokens:
		return fmt.Sprintf("usage.completion_tokens %d, want %d", r.usage, genTokens)
	}
	return ""
}

// server is one fresh stack behind an HTTP server on a pipeListener.
type server struct {
	loop   *diffkv.Loop
	http   *httptest.Server
	client *http.Client
	t0     time.Time
}

func startServer(seed uint64) (*server, error) {
	sc, err := loadSpec(gatewaySpec, seed, false)
	if err != nil {
		return nil, err
	}
	st, err := sc.Build()
	if err != nil {
		return nil, err
	}
	loop := st.StartLoop(diffkv.LoopConfig{TimeScale: sc.Gateway.TimeScale})
	gw, err := httpapi.New(httpapi.Config{Loop: loop, ModelName: sc.Model, DefaultMaxTokens: sc.Gateway.DefaultMaxTokens})
	if err != nil {
		return nil, err
	}
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
	ts := httptest.NewUnstartedServer(gw.Handler())
	ts.Listener = ln
	ts.Start()
	return &server{
		loop: loop,
		http: ts,
		client: &http.Client{Transport: &http.Transport{
			DialContext:     ln.dial,
			MaxConnsPerHost: connections, MaxIdleConnsPerHost: connections, DisableCompression: true,
		}},
	}, nil
}

// pipeListener is the server's net.Listener: every dial makes a net.Pipe
// and hands the server one end of it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }
func (l *pipeListener) dial(_ context.Context, _, _ string) (net.Conn, error) {
	c, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// stop closes the client's connections and the listener, then drains and
// stops the loop goroutine.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.loop.Shutdown(ctx)
}

func (s *server) since() time.Duration { return time.Since(s.t0) }

// do performs one operation and reads its whole response.
func (s *server) do(o op, rec *recorder, parent, req int) opResult {
	r := opResult{kind: o.kind, sent: s.since()}
	root := rec.begin("httpapi.request", parent, req)
	defer rec.end(root)

	var hr *http.Request
	var err error
	if o.kind == opScrape {
		hr, err = http.NewRequest(http.MethodGet, s.http.URL+"/metrics", nil)
	} else {
		body := fmt.Sprintf(`{"prompt_tokens":%d,"max_tokens":%d,"stream":%v,"prefix_group":%d,"prefix_len":%d}`,
			promptTokens, genTokens, o.kind == opStream, o.group, prefixTokens)
		hr, err = http.NewRequest(http.MethodPost, s.http.URL+"/v1/completions", strings.NewReader(body))
	}
	if err != nil {
		r.err = err
		return r
	}
	sp := rec.begin("httpapi.headers", root, req)
	resp, err := s.client.Do(hr)
	rec.end(sp)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	r.status = resp.StatusCode

	switch o.kind {
	case opStream:
		sp = rec.begin("httpapi.first_chunk", root, req)
		var last []byte
		br := bufio.NewReader(resp.Body)
		for {
			line, err := br.ReadBytes('\n')
			if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
				if r.chunks == 0 {
					r.first = s.since()
					rec.end(sp)
					sp = rec.begin("httpapi.stream", root, req)
				}
				r.chunks++
				r.bytes += len(line)
				if data = bytes.TrimSpace(data); string(data) == "[DONE]" {
					r.done = true
				} else {
					last = append(last[:0], data...)
				}
			}
			if err != nil {
				if err != io.EOF {
					r.err = err
				}
				break
			}
		}
		rec.end(sp)
		r.usage = completionTokens(last)
	case opBlocking:
		sp = rec.begin("httpapi.body", root, req)
		data, err := io.ReadAll(resp.Body)
		rec.end(sp)
		r.err, r.bytes, r.usage = err, len(data), completionTokens(data)
	case opScrape:
		sp = rec.begin("httpapi.body", root, req)
		data, err := io.ReadAll(resp.Body)
		rec.end(sp)
		if r.err, r.bytes = err, len(data); err == nil {
			r.err = checkExposition(data)
		}
	}
	r.finish = s.since()
	return r
}

// completionTokens reads usage.completion_tokens from a response body or
// a stream's last JSON chunk (0 when absent).
func completionTokens(data []byte) int {
	var body struct {
		Usage struct {
			CompletionTokens int `json:"completion_tokens"`
		} `json:"usage"`
	}
	if json.Unmarshal(data, &body) != nil {
		return 0
	}
	return body.Usage.CompletionTokens
}

// checkExposition parses a /metrics body: every sample line is a name and
// a number.
func checkExposition(data []byte) error {
	samples := 0
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return fmt.Errorf("/metrics: malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(f[1], 64); err != nil {
			return fmt.Errorf("/metrics: %q: %v", line, err)
		}
		samples++
	}
	if samples == 0 {
		return fmt.Errorf("/metrics: no samples")
	}
	return nil
}

// closedLoop runs the ops back to back over the client's connections.
func (s *server) closedLoop(ops []op, rec *recorder, parent int) []opResult {
	results := make([]opResult, len(ops))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	s.t0 = time.Now()
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(ops) {
					return
				}
				results[i] = s.do(ops[i], rec, parent, i+1)
			}
		}()
	}
	wg.Wait()
	return results
}

// schedule draws Poisson arrivals at rate per second over the horizon.
func schedule(rate, seconds float64, rng *mathx.RNG) []time.Duration {
	var due []time.Duration
	for t := rng.Exp(rate); t < seconds; t += rng.Exp(rate) {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// openLoop runs do(i) for every i on a fixed schedule over a fixed number
// of workers: a worker takes the next operation, waits until it is due and
// then runs it. The schedule does not move when the system is slow; an
// operation whose turn comes after its due time starts late, and since the
// caller times it from due[i] and not from its start, the wait a stall
// imposes on the operations behind it counts against them. It returns how
// late each operation started. now and sleep are the clock, injected so a
// test can stall it.
func openLoop(due []time.Duration, workers int, now func() time.Duration, sleep func(time.Duration), do func(i int)) []time.Duration {
	late := make([]time.Duration, len(due))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(due) {
					return
				}
				if wait := due[i] - now(); wait > 0 {
					sleep(wait)
				}
				late[i] = max(0, now()-due[i])
				do(i)
			}
		}()
	}
	wg.Wait()
	return late
}

func (w *gatewayWorkload) prepare(seed uint64, quarter bool) (runFunc, error) {
	s, err := startServer(seed)
	if err != nil {
		return nil, err
	}
	n := closedLoopOps
	if quarter {
		n /= 4
	}
	ops := makeOps(n, mathx.NewRNG(seed))
	return func(rec *recorder) (*repResult, error) {
		results := s.closedLoop(ops, rec, rootSpan)
		wall := s.since()
		m := s.loop.Metrics()
		if err := s.stop(); err != nil {
			return nil, err
		}
		res, streamUs := summarize(results)
		if rec == nil && !quarter {
			w.streamUsP50 = streamUs
		}
		if want := len(ops) - len(ops)/scrapeEvery; m.Completed != want || m.Driver.Rejected != 0 {
			res.failf("loop completed %d of %d completions, rejected %d", m.Completed, want, m.Driver.Rejected)
		}
		if pages := m.Driver.UsedKVPages + m.Driver.FreeKVPages; pages != 0 {
			res.failf("traits-mode cluster reports %d KV pages: a page manager exists where none should", pages)
		}
		res.values["wall_req_per_s"] = float64(len(ops)) / wall.Seconds()
		return res, nil
	}, nil
}

// summarize checks every response and derives the per-request numbers the
// client can see. The digest covers what must repeat — kinds, chunk counts
// and usage, in operation order — because arrival interleaving, and with
// it every simulated time, depends on the wall clock here.
func summarize(results []opResult) (res *repResult, streamUsP50 float64) {
	res = &repResult{attempted: len(results), values: make(map[string]float64)}
	d := newDigest()
	var streamUs, blockingMs, scrapeMs []float64
	var chunks, chunkBytes, non200 int
	var streamWall time.Duration
	for i, r := range results {
		if why := r.failure(); why != "" {
			res.failf("op %d: %s", i, why)
		}
		if r.status != http.StatusOK {
			non200++
		}
		d.add("%d %d %d %v|", r.kind, r.chunks, r.usage, r.done)
		wall := r.finish - r.sent
		switch r.kind {
		case opStream:
			streamUs = append(streamUs, float64(wall.Microseconds()))
			chunks, chunkBytes, streamWall = chunks+r.chunks, chunkBytes+r.bytes, streamWall+wall
		case opBlocking:
			blockingMs = append(blockingMs, wall.Seconds()*1e3)
		case opScrape:
			scrapeMs = append(scrapeMs, wall.Seconds()*1e3)
		}
	}
	res.digest = d.sum()
	res.spans = 5 * len(results)
	v := res.values
	v["httpapi.non_200"] = float64(non200)
	v["httpapi.blocking_ms_p50"] = median(blockingMs)
	v["httpapi.metrics_scrape_ms"] = mean(scrapeMs)
	if chunks > 0 {
		v["httpapi.chunk_wall_us"] = float64(streamWall.Microseconds()) / float64(chunks)
		v["httpapi.bytes_per_chunk"] = float64(chunkBytes) / float64(chunks)
	}
	res.notef("closed loop: stream request %s", timing(streamUs, "us"))
	res.notef("closed loop: blocking request %s", timing(blockingMs, "ms"))
	return res, median(streamUs)
}

// probes measures the loop without HTTP, then runs the open-loop latency
// phase against a fresh server, with its client-side spans recorded.
func (w *gatewayWorkload) probes(seed uint64, rec *recorder, out map[string]float64) error {
	loopUs, err := probeLoop(seed)
	if err != nil {
		return err
	}
	out["serving.loop_req_us_p50"] = loopUs
	out["httpapi.overhead_us_p50"] = w.streamUsP50 - loopUs

	s, err := startServer(seed)
	if err != nil {
		return err
	}
	rng := mathx.NewRNG(seed + 1)
	due := schedule(openLoopRate, openLoopSeconds, rng)
	ops := makeOps(len(due), rng)
	results := make([]opResult, len(due))
	root := rec.begin("bench.open_loop", 0, 0)
	s.t0 = time.Now()
	late := openLoop(due, connections, s.since, time.Sleep, func(i int) {
		results[i] = s.do(ops[i], rec, root, i+1)
	})
	rec.end(root)
	if err := s.stop(); err != nil {
		return err
	}

	var ttft, e2e, lateMs []float64
	failed := 0
	for i, r := range results {
		if r.failure() != "" {
			failed++
			continue
		}
		// from the due time, not from when the request was sent
		e2e = append(e2e, (r.finish-due[i]).Seconds()*1e3)
		if r.kind == opStream {
			ttft = append(ttft, (r.first-due[i]).Seconds()*1e3)
		}
		lateMs = append(lateMs, late[i].Seconds()*1e3)
	}
	if failed > 0 {
		return fmt.Errorf("open loop: %d of %d operations failed", failed, len(results))
	}
	out["wall_ttft_ms_p50"] = median(ttft)
	out["wall_e2e_ms_p50"] = median(e2e)
	out["httpapi.ttft_wall_ms_p99"] = quantile(ttft, 0.99)
	out["httpapi.e2e_wall_ms_p99"] = quantile(e2e, 0.99)
	out["httpapi.gen_late_ms_p99"] = quantile(lateMs, 0.99)
	fmt.Printf("  open loop %.0f req/s x %.0f s: TTFT %s\n", openLoopRate, openLoopSeconds, timing(ttft, "ms"))
	fmt.Printf("  open loop: end to end %s\n", timing(e2e, "ms"))
	fmt.Printf("  open loop: generator lateness %s\n", timing(lateMs, "ms"))
	return nil
}

// probeLoop times Loop.Open → Session.Done with no HTTP in the way, from
// as many goroutines as the client has connections.
func probeLoop(seed uint64) (float64, error) {
	sc, err := loadSpec(gatewaySpec, seed, false)
	if err != nil {
		return 0, err
	}
	st, err := sc.Build()
	if err != nil {
		return 0, err
	}
	loop := st.StartLoop(diffkv.LoopConfig{TimeScale: sc.Gateway.TimeScale})
	const perWorker = 1000
	us := make([][]float64, connections)
	errs := make([]error, connections)
	var wg sync.WaitGroup
	for c := 0; c < connections; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := mathx.NewRNG(seed + uint64(c))
			for i := 0; i < perWorker; i++ {
				req := diffkv.Request{PromptLen: promptTokens, GenLen: genTokens, PrefixGroup: 1 + rng.Intn(prefixGroups), PrefixLen: prefixTokens}
				t0 := time.Now()
				sess, err := loop.Open(context.Background(), req, func(serving.TokenUpdate) {})
				if err != nil {
					errs[c] = err
					return
				}
				<-sess.Done()
				us[c] = append(us[c], float64(time.Since(t0).Microseconds()))
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := loop.Shutdown(ctx); err != nil {
		return 0, err
	}
	var all []float64
	for c := range us {
		if errs[c] != nil {
			return 0, errs[c]
		}
		all = append(all, us[c]...)
	}
	return median(all), nil
}
