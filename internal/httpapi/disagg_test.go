package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"diffkv/internal/cluster"
	"diffkv/internal/disagg"
	"diffkv/internal/telemetry"
)

// disaggLoop runs a 2+2 prefill/decode cluster behind a serving loop —
// the gateway-visible half of disaggregation — with the telemetry center
// it feeds.
func disaggLoop(t *testing.T) (*Loop, *telemetry.Center) {
	t.Helper()
	cfg := managerCfg(31)
	cfg.MaxGenLen = 64
	return clusterLoop(t, cluster.Config{
		Instances: 4,
		Engine:    cfg,
		Policy:    cluster.PolicyDisaggAware,
		Seed:      31,
		Disagg:    &disagg.Config{PrefillInstances: 2, DecodeInstances: 2},
	})
}

// A gateway completion against a disaggregated cluster splits into a
// prefill sub-request plus a decode remainder shipped over the NIC, and
// the shipment counters reach /metrics: the lane-labeled counter
// families plus the per-pool load gauges.
func TestMetricsExportDisaggSeries(t *testing.T) {
	l, _ := disaggLoop(t)
	srv := newTestServer(t, l)
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
			strings.NewReader(`{"prompt_tokens": 128, "max_tokens": 8}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("completion status %d, want 200", resp.StatusCode)
		}
	}

	mr, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"diffkv_kv_transfers_total 2",
		"diffkv_kv_bytes_shipped_total ",
		`diffkv_kv_bytes_shipped_total{from="`,
		`diffkv_pool_instances{pool="decode"} 2`,
		`diffkv_pool_instances{pool="prefill"} 2`,
		`diffkv_pool_queue_depth{pool="decode"}`,
		`diffkv_pool_running_requests{pool="prefill"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	// every lane series originates in the prefill pool (1-2) and lands in
	// the decode pool (3-4)
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "diffkv_kv_bytes_shipped_total{") {
			continue
		}
		if !strings.Contains(line, `from="1"`) && !strings.Contains(line, `from="2"`) {
			t.Fatalf("shipment lane not from the prefill pool: %s", line)
		}
		if !strings.Contains(line, `to="3"`) && !strings.Contains(line, `to="4"`) {
			t.Fatalf("shipment lane not to the decode pool: %s", line)
		}
	}
}

// /debug/telemetry gains a "disagg" section on disaggregated clusters —
// shipment totals, per-lane traffic and the pool census — without
// disturbing the snapshot's own keys.
func TestDebugTelemetryDisaggSection(t *testing.T) {
	l, tc := disaggLoop(t)
	srv := newCenterServer(t, l, tc)

	resp, err := http.Post(srv.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt_tokens": 128, "max_tokens": 8}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dr, err := http.Get(srv.URL + "/debug/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer dr.Body.Close()
	var doc struct {
		Disagg *disaggSection `json:"disagg"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Disagg == nil {
		t.Fatal("/debug/telemetry has no disagg section on a disaggregated cluster")
	}
	if doc.Disagg.Transfers != 1 || doc.Disagg.KVBytesShipped <= 0 {
		t.Fatalf("disagg section wrong: %+v", doc.Disagg)
	}
	if doc.Disagg.Pools["prefill"] != 2 || doc.Disagg.Pools["decode"] != 2 {
		t.Fatalf("pool census wrong: %+v", doc.Disagg.Pools)
	}
	if len(doc.Disagg.Links) != 1 || doc.Disagg.Links[0].From > 2 || doc.Disagg.Links[0].To < 3 {
		t.Fatalf("lane wrong: %+v", doc.Disagg.Links)
	}
}
