// Gateway: the network-facing serving API end to end, in one process.
// A declarative Scenario builds a cluster stack, StartLoop hands its
// step cadence to the always-on driver, and the OpenAI-style HTTP
// gateway serves it — then this program turns around and acts as its
// own client: it streams a completion over SSE, disconnects a second
// request mid-stream (watching the cancellation free KV state), scrapes
// /metrics, and drains the stack through Loop.Shutdown. Everything here
// is what `cmd/diffkv-gateway -scenario spec.json` does behind one
// binary, laid out as library calls.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"diffkv"
	"diffkv/internal/httpapi"
)

func main() {
	sc := diffkv.Scenario{
		Name:      "gateway-demo",
		Model:     "Llama3-8B",
		Method:    "DiffKV",
		MemFrac:   0.3,
		MaxGenLen: 256,
		Workload:  diffkv.WorkloadSpec{Bench: "GSM8K"}, // shapes the stack; traffic arrives over HTTP
		Cluster:   &diffkv.ClusterSpec{Instances: 2, Routing: "least-loaded"},
		Gateway:   &diffkv.GatewaySpec{TimeScale: 0.02}, // 50x faster than real time
		Seed:      7,
	}
	st, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	loop := st.StartLoop(diffkv.LoopConfig{TimeScale: sc.Gateway.TimeScale})
	api, err := httpapi.New(httpapi.Config{Loop: loop, ModelName: st.Model.Name})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: api.Handler()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("gateway up on %s (%d-instance cluster, %s routing)\n\n",
		base, len(st.Cluster.Engines()), st.Cluster.Policy())

	// 1: a streamed completion — tokens arrive incrementally over SSE
	resp, err := http.Post(base+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt": "prove that swap beats recompute", "max_tokens": 8, "stream": true}`))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("streamed completion:")
	sc1 := bufio.NewScanner(resp.Body)
	for sc1.Scan() {
		if line := sc1.Text(); strings.HasPrefix(line, "data: ") {
			fmt.Printf("  %s\n", truncate(line, 120))
			if line == "data: [DONE]" {
				break
			}
		}
	}
	resp.Body.Close()

	// 2: a client that hangs up mid-stream — the session is cancelled
	// and its KV pages freed at the next step boundary
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/completions",
		strings.NewReader(`{"prompt_tokens": 1024, "max_tokens": 128, "stream": true}`))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	sc2 := bufio.NewScanner(resp2.Body)
	for chunks := 0; sc2.Scan() && chunks < 2; {
		if strings.HasPrefix(sc2.Text(), "data: ") {
			chunks++
		}
	}
	cancel()
	resp2.Body.Close()
	for loop.Metrics().Driver.Cancelled == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	m := loop.Metrics()
	fmt.Printf("\nafter mid-stream disconnect: %d cancelled, %d KV pages in use, %d sessions open\n",
		m.Driver.Cancelled, m.Driver.UsedKVPages, m.Driver.OpenSessions)

	// 3: the Prometheus surface an operator scrapes
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected /metrics series:")
	sc3 := bufio.NewScanner(mresp.Body)
	for sc3.Scan() {
		line := sc3.Text()
		for _, prefix := range []string{
			"diffkv_ttft_seconds{quantile=\"0.5\"}", "diffkv_requests_completed_total",
			"diffkv_requests_cancelled_total", "diffkv_goodput_tokens_per_sec",
			"diffkv_instances", "diffkv_kv_pages_used",
		} {
			if strings.HasPrefix(line, prefix) {
				fmt.Printf("  %s\n", line)
			}
		}
	}
	mresp.Body.Close()

	// 4: one graceful-drain entry point for the whole stack
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := loop.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	if err := srv.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	final := loop.Metrics()
	fmt.Printf("\ndrained: %d opened, %d completed, %d cancelled — cluster stuck=%d\n",
		final.Opened, final.Completed, final.Driver.Cancelled, st.Cluster.Metrics().Stuck())
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
