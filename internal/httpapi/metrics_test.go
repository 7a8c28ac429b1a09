package httpapi

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"diffkv/internal/cluster"
	"diffkv/internal/offload"
	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
	"diffkv/internal/workload"
)

// clusterLoop runs cc (one instance unless it says otherwise) behind a
// serving loop, feeding a fresh telemetry center the way every
// Scenario.Build stack does.
func clusterLoop(t *testing.T, cc cluster.Config) (*Loop, *telemetry.Center) {
	t.Helper()
	if cc.Instances == 0 {
		cc.Instances = 1
	}
	tc := telemetry.New(telemetry.Config{})
	cc.Telemetry = tc
	c, err := cluster.New(cc)
	if err != nil {
		t.Fatal(err)
	}
	return startLoop(t, c, LoopConfig{}), tc
}

// newCenterServer fronts l with a gateway that exposes tc.
func newCenterServer(t *testing.T, l *Loop, tc *telemetry.Center) *httptest.Server {
	t.Helper()
	g, err := New(Config{Loop: l, ModelName: "Llama3-8B", Telemetry: tc})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// scrape returns the /metrics body.
func scrape(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// sample reads the value of one unlabeled series from an exposition.
func sample(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics lacks %s", name)
	return 0
}

// phaseFamilies are the six lifecycle-phase histograms, which telescope
// to diffkv_e2e_seconds.
var phaseFamilies = []string{"queue", "prefill", "xfer", "decode", "stall", "swapped"}

// checkPhasesTelescope requires the six phase sums to add up to the E2E
// sum within 1 µs per completion, and returns the scrape.
func checkPhasesTelescope(t *testing.T, srv *httptest.Server, wantCompleted int) string {
	t.Helper()
	body := scrape(t, srv)
	if strings.Contains(body, " summary\n") {
		t.Fatalf("/metrics still carries a summary family:\n%s", body)
	}
	count := sample(t, body, "diffkv_e2e_seconds_count")
	if int(count) != wantCompleted {
		t.Fatalf("diffkv_e2e_seconds_count %g, want %d", count, wantCompleted)
	}
	var phases float64
	for _, p := range phaseFamilies {
		phases += sample(t, body, "diffkv_phase_"+p+"_seconds_sum")
	}
	e2e := sample(t, body, "diffkv_e2e_seconds_sum")
	if d := math.Abs(phases - e2e); d > count*1e-6 {
		t.Fatalf("phase sums %g != e2e sum %g (off by %g s over %g completions)", phases, e2e, d, count)
	}
	return body
}

// A disaggregated run ships every request's KV prefill-to-decode, so the
// xfer phase is non-zero, and the phase families still telescope.
func TestMetricsPhasesTelescopeDisagg(t *testing.T) {
	l, tc := disaggLoop(t)
	srv := newCenterServer(t, l, tc)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt_tokens": 128, "max_tokens": 8}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	body := checkPhasesTelescope(t, srv, 2)
	if n := sample(t, body, "diffkv_phase_xfer_seconds_count"); n != 2 {
		t.Fatalf("diffkv_phase_xfer_seconds_count %g, want 2", n)
	}
}

// An oversubscribed engine with the swap policy spends time swapped out
// to the host tier; the phase families still telescope.
func TestMetricsPhasesTelescopeSwap(t *testing.T) {
	cfg := managerCfg(11)
	cfg.MemoryReserve, cfg.MaxGenLen = 0.985, 2048
	cfg.PreemptPolicy, cfg.HostMemoryBytes = offload.PolicySwap, 2<<30
	l, tc := clusterLoop(t, cluster.Config{Engine: cfg, Seed: 11})
	srv := newCenterServer(t, l, tc)
	reqs := workload.NewRequestGen(workload.MATH, 2048, 11).CoTBatch(20)
	var sessions []*serving.Session
	for _, r := range reqs {
		s, err := l.Open(context.Background(), r, nil)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	for _, s := range sessions {
		<-s.Done()
	}
	body := checkPhasesTelescope(t, srv, len(reqs))
	if n := sample(t, body, "diffkv_phase_swapped_seconds_count"); n == 0 {
		t.Fatal("no completion spent time swapped out: the run no longer swaps")
	}
}
