package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"diffkv/internal/cluster"
	"diffkv/internal/faults"
)

func TestRetryAfterHint(t *testing.T) {
	cases := []struct {
		name   string
		floor  time.Duration
		mean   float64
		queued int
		up     int
		want   int
	}{
		{"no completions falls back to floor", time.Second, 0, 12, 2, 1},
		{"empty queue falls back to floor", 2 * time.Second, 3.5, 0, 2, 2},
		{"drain estimate spread over instances", time.Second, 2.0, 10, 2, 10},
		{"zero up instances treated as one", time.Second, 2.0, 5, 0, 10},
		{"capped at sixty seconds", time.Second, 30, 100, 1, 60},
	}
	for _, tc := range cases {
		if got := retryAfterHint(tc.floor, tc.mean, tc.queued, tc.up); got != tc.want {
			t.Errorf("%s: retryAfterHint(%v, %g, %d, %d) = %d, want %d",
				tc.name, tc.floor, tc.mean, tc.queued, tc.up, got, tc.want)
		}
	}
}

// chaosLoop runs a 2-instance cluster whose first instance crashes
// permanently the moment work arrives — the gateway-visible half of
// fault injection.
func chaosLoop(t *testing.T, instances int, plan *faults.Plan) *Loop {
	t.Helper()
	c, err := cluster.New(cluster.Config{
		Instances: instances,
		Engine:    traitsCfg(21),
		Policy:    cluster.PolicyLeastLoaded,
		Seed:      21,
		Faults:    plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	return startLoop(t, c, LoopConfig{})
}

// A crashed instance shows up in /healthz: overall status "degraded"
// (the fleet still serves, so it stays 200), a per-instance health
// array, and the live instance count.
func TestHealthzReportsPerInstanceHealth(t *testing.T) {
	plan := &faults.Plan{
		Seed:    5,
		Crashes: []faults.Crash{{Inst: 1, AtSec: 0}}, // permanent, fires on first arrival
	}
	l := chaosLoop(t, 2, plan)
	srv := newTestServer(t, l)
	// the completion routes around the crash and finishes on instance 2
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("completion status %d, want 200 (survivor should serve it)", resp.StatusCode)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d, want 200: a degraded fleet still serves", hz.StatusCode)
	}
	var body struct {
		Status      string           `json:"status"`
		InstancesUp int              `json:"instances_up"`
		Instances   []instanceHealth `json:"instances"`
	}
	if err := json.NewDecoder(hz.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "degraded" {
		t.Fatalf("status %q, want degraded", body.Status)
	}
	if body.InstancesUp != 1 {
		t.Fatalf("instances_up %d, want 1", body.InstancesUp)
	}
	if len(body.Instances) != 2 {
		t.Fatalf("per-instance entries %d, want 2", len(body.Instances))
	}
	if body.Instances[0].Inst != 1 || body.Instances[0].Health != "down" {
		t.Fatalf("instance 1 entry %+v, want down", body.Instances[0])
	}
	if body.Instances[1].Health != "healthy" {
		t.Fatalf("instance 2 entry %+v, want healthy", body.Instances[1])
	}
}

// The fault-recovery counters reach /metrics, with diffkv_instance_up
// per-instance series distinguishing the crashed instance from the
// survivor.
func TestMetricsExportFaultSeries(t *testing.T) {
	plan := &faults.Plan{
		Seed:    5,
		Crashes: []faults.Crash{{Inst: 1, AtSec: 0}},
	}
	l := chaosLoop(t, 2, plan)
	srv := newTestServer(t, l)
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 64, "max_tokens": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"diffkv_instance_up 1",
		`diffkv_instance_up{inst="1"} 0`,
		`diffkv_instance_up{inst="2"} 1`,
		"diffkv_crashes_total 1",
		"diffkv_restarts_total 0",
		"diffkv_requests_failed_total",
		"diffkv_redispatches_total",
		"diffkv_swap_recovered_total",
		"diffkv_lost_kv_bytes_total",
		"diffkv_brownout_admissions_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// A request whose instance crashes with no retry budget terminally
// fails, and the gateway reports it as an honest 503 with error type
// "failed" and a Retry-After hint — not a hang, not a fake completion.
func TestCompletionFailedMapsTo503(t *testing.T) {
	plan := &faults.Plan{
		Seed:        5,
		Crashes:     []faults.Crash{{Inst: 1, AtSec: 1}}, // permanent, mid-generation
		RetryBudget: -1,                                  // no re-dispatch
	}
	l := chaosLoop(t, 1, plan)
	srv := newTestServer(t, l)
	// long enough that the sim clock crosses the crash with the request
	// in flight
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 512, "max_tokens": 512}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("failed completion carries no Retry-After hint")
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Type != "failed" {
		t.Fatalf("error type %q, want failed", eb.Error.Type)
	}
}

// The same failure on a stream, whose 200 is already sent: the stream
// ends with the blocking path's error body as an event, then [DONE] —
// not silently after the last token chunk.
func TestCompletionStreamFailedEndsWithError(t *testing.T) {
	plan := &faults.Plan{
		Seed:        5,
		Crashes:     []faults.Crash{{Inst: 1, AtSec: 1}},
		RetryBudget: -1,
	}
	srv := newTestServer(t, chaosLoop(t, 1, plan))
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 512, "max_tokens": 512, "stream": true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	payloads := readSSE(t, resp.Body)
	n := len(payloads)
	if n < 3 || payloads[n-1] != "[DONE]" {
		t.Fatalf("stream of %d events did not end with [DONE]", n)
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(payloads[n-2]), &eb); err != nil || eb.Error.Type != "failed" || eb.Error.Message == "" {
		t.Fatalf("event before [DONE] is %q, want an error of type failed", payloads[n-2])
	}
	var last completionResponse
	if err := json.Unmarshal([]byte(payloads[n-3]), &last); err != nil || last.Usage != nil || last.DiffKV == nil {
		t.Fatalf("event before the error is %q, want a token chunk", payloads[n-3])
	}
}
