// Command diffkv-gateway boots a serving or cluster stack from a
// scenario spec and serves it over HTTP: an OpenAI-style
// /v1/completions endpoint with SSE token streaming, /healthz, and a
// Prometheus-style /metrics endpoint. The engine runs under an
// always-on Loop, so concurrent clients submit work while the step
// cadence is owned by one background goroutine; SIGINT/SIGTERM drains
// in-flight sessions through Loop.Shutdown before exiting.
//
// Usage:
//
//	diffkv-gateway -scenario scenario.json
//	diffkv-gateway -model Llama3-8B -method DiffKV -listen 127.0.0.1:8080
//	diffkv-gateway -chaos 2                # 2-instance cluster, random crashes
//	curl -N -d '{"prompt":"hello","max_tokens":32,"stream":true}' \
//	    http://127.0.0.1:8080/v1/completions
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diffkv"
	"diffkv/internal/httpapi"
)

func main() {
	var (
		scenarioPath = flag.String("scenario", "", "load the configuration from a scenario JSON file (overrides the other flags)")
		listen       = flag.String("listen", "", "HTTP listen address (overrides the scenario's gateway.listen; default 127.0.0.1:8080)")
		modelName    = flag.String("model", "Llama3-8B", "model name (flag mode)")
		method       = flag.String("method", "DiffKV", "registered serving method (flag mode)")
		memFrac      = flag.Float64("memfrac", 0.3, "DiffKV resident memory fraction (flag mode)")
		maxGen       = flag.Int("maxgen", 4096, "generation limit (flag mode)")
		timeScale    = flag.Float64("timescale", -1, "simulated-to-wall time pacing: 1 = real time, 0 = flat out (-1 keeps the scenario's value)")
		seed         = flag.Uint64("seed", 42, "random seed (flag mode)")
		debugFlag    = flag.Bool("debug", false, "enable request tracing and the /debug routes even without an observability spec")
		perfettoOut  = flag.String("perfetto", "", "write the retained trace as a Perfetto file here on shutdown (overrides the scenario's observability.perfetto_path)")
		instances    = flag.Int("instances", 0, "flag mode: serve an N-instance cluster instead of a single engine")
		chaosRate    = flag.Float64("chaos", 0, "flag mode: inject random instance crashes at this rate per instance per minute (implies a 2-instance cluster)")
		chaosDown    = flag.Float64("chaos-down", 5, "mean crash downtime in seconds (with -chaos)")
	)
	flag.Parse()

	var sc *diffkv.Scenario
	if *scenarioPath != "" {
		var err error
		if sc, err = diffkv.LoadScenario(*scenarioPath); err != nil {
			log.Fatal(err)
		}
	} else {
		sc = &diffkv.Scenario{
			Model:     *modelName,
			Method:    *method,
			MemFrac:   *memFrac,
			MaxGenLen: *maxGen,
			// the gateway's workload arrives over HTTP; the spec only
			// shapes the stack, so any benchmark satisfies validation
			Workload: diffkv.WorkloadSpec{Bench: "MATH"},
			Seed:     *seed,
		}
		if *instances > 0 {
			sc.Cluster = &diffkv.ClusterSpec{Instances: *instances, Routing: "least-loaded"}
		}
		if *chaosRate > 0 {
			// fault injection needs survivors to re-dispatch to
			if sc.Cluster == nil {
				sc.Cluster = &diffkv.ClusterSpec{Instances: 2, Routing: "least-loaded"}
			}
			sc.Faults = &diffkv.FaultsSpec{
				CrashRatePerMin: *chaosRate,
				MeanDownSec:     *chaosDown,
			}
		}
	}
	gw := diffkv.GatewaySpec{}
	if sc.Gateway != nil {
		gw = *sc.Gateway
	}
	if gw.Listen == "" {
		gw.Listen = "127.0.0.1:8080"
	}
	if *listen != "" {
		gw.Listen = *listen
	}
	if *timeScale >= 0 {
		gw.TimeScale = *timeScale
	}
	if gw.DrainTimeoutSec <= 0 {
		gw.DrainTimeoutSec = 30
	}
	obs := diffkv.ObservabilitySpec{}
	if sc.Observability != nil {
		obs = *sc.Observability
	}
	if *debugFlag {
		obs.Debug = true
	}
	if *perfettoOut != "" {
		obs.PerfettoPath = *perfettoOut
	}
	var col *diffkv.TraceCollector
	if sc.Observability != nil || obs.Debug || obs.PerfettoPath != "" {
		col = diffkv.NewTraceCollector(obs.TraceEvents)
		sc.Tracer = col
	}
	// -debug enables the telemetry center even without an explicit
	// observability.slos/saturation/sample_interval_ms section, so the
	// /debug/telemetry routes and diffkv-top always have data to show
	if obs.Debug && !obs.Telemetry() {
		obs.SampleIntervalMs = 1000
	}
	sc.Observability = &obs

	st, err := sc.Build()
	if err != nil {
		log.Fatal(err)
	}
	loop := st.StartLoop(diffkv.LoopConfig{TimeScale: gw.TimeScale})
	apiCfg := httpapi.Config{
		Loop:             loop,
		ModelName:        st.Model.Name,
		DefaultMaxTokens: gw.DefaultMaxTokens,
		Telemetry:        st.Telemetry,
		Pprof:            obs.Debug,
	}
	if col != nil && obs.Debug {
		apiCfg.Trace = col
	}
	api, err := httpapi.New(apiCfg)
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", gw.Listen)
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: api.Handler()}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	shape := "single instance"
	if st.Cluster != nil {
		shape = fmt.Sprintf("%d-instance cluster (%s routing)",
			len(st.Cluster.Engines()), st.Cluster.Policy())
	}
	if sc.Faults != nil {
		shape += " + fault injection"
	}
	log.Printf("diffkv-gateway: %s | %s | %s | listening on http://%s (timescale %g)",
		st.Model.Name, sc.Method, shape, ln.Addr(), gw.TimeScale)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("diffkv-gateway: %v — draining (up to %gs)", s, gw.DrainTimeoutSec)
	case err := <-errCh:
		log.Fatalf("diffkv-gateway: serve: %v", err)
	}

	drain := time.Duration(gw.DrainTimeoutSec * float64(time.Second))
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	// loop first: new Opens shed with 503 while in-flight sessions finish,
	// then the HTTP server closes once their streams have ended
	if err := loop.Shutdown(ctx); err != nil {
		log.Printf("diffkv-gateway: drain: %v", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("diffkv-gateway: http shutdown: %v", err)
	}
	if col != nil && obs.PerfettoPath != "" {
		if err := writePerfetto(col, obs.PerfettoPath); err != nil {
			log.Printf("diffkv-gateway: perfetto: %v", err)
		} else {
			log.Printf("diffkv-gateway: wrote trace (%d events, %d dropped) to %s — open in ui.perfetto.dev",
				col.Retained(), col.Dropped(), obs.PerfettoPath)
		}
	}
	m := loop.Metrics()
	log.Printf("diffkv-gateway: done — %d opened, %d completed, %d cancelled, %d steps, %.1fs simulated",
		m.Opened, m.Completed, m.Driver.Cancelled, m.Steps, m.SimSeconds)
	if d := m.Driver; d.Crashes > 0 || d.Failed > 0 {
		log.Printf("diffkv-gateway: faults — %d crashes, %d restarts, %d re-dispatched, %d failed, %d swap-recovered",
			d.Crashes, d.Restarts, d.Redispatches, d.Failed, d.SwapRecovered)
	}
}

// writePerfetto dumps the collector as a Perfetto trace-event file.
func writePerfetto(col *diffkv.TraceCollector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
