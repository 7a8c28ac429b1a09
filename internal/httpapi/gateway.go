// Package httpapi is the network-facing serving API and the real-time
// edge of the simulator. Its Loop (loop.go) owns a cluster's step
// cadence in a background goroutine and paces simulated time against
// the wall clock; the gateway is an OpenAI-style HTTP front-end over
// the Loop's sessions. POST /v1/completions opens a Session on the loop
// and streams token progress back as server-sent events (or returns one
// JSON body when stream is false); client disconnects cancel the
// session, freeing its KV pages; /healthz reports liveness and /metrics
// exports the serving counters and latency histograms in Prometheus
// text format. The gateway holds no serving
// state of its own — counters come from Loop.Metrics, latency from the
// telemetry center the cluster feeds, and everything mutable goes
// through Loop.Open — so the same handler fronts a one-instance cluster
// or a whole fleet.
package httpapi

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"diffkv/internal/cluster"
	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
)

const (
	// maxTokensLimit caps client-supplied max_tokens (the largest
	// per-model generation limit in the paper); a request above it is a
	// 400, not a multi-gigabyte stream buffer.
	maxTokensLimit = 16384
	// maxPromptTokens caps client-supplied prompt_tokens; a simulated
	// prompt longer than any model's context is a caller error.
	maxPromptTokens = 1 << 20
	// retryAfter is the Retry-After hint, in whole seconds, attached to 503
	// responses when the loop is draining, and the floor of the adaptive
	// hint when admission control sheds a request.
	retryAfter = time.Second
)

// Config parameterizes a Gateway.
type Config struct {
	// Loop is the always-on driver the gateway opens sessions on.
	Loop *Loop
	// ModelName is echoed in completion responses (the simulator serves
	// one model per stack).
	ModelName string
	// DefaultMaxTokens bounds generations when a request omits
	// max_tokens (default 256).
	DefaultMaxTokens int
	// Trace, when non-nil, is the collector the serving stack emits into;
	// it enables the /debug routes (per-request span trees, Perfetto
	// trace download, live event tail) and the trace health metrics.
	Trace *trace.Collector
	// Telemetry, when non-nil, is the telemetry center the served
	// cluster feeds (every Scenario.Build stack has one); it enables GET
	// /debug/telemetry (JSON snapshot), GET /debug/telemetry/stream
	// (SSE), the latency histogram, saturation and SLO series on
	// /metrics, and the adaptive Retry-After hint.
	Telemetry *telemetry.Center
	// Pprof mounts net/http/pprof under /debug/pprof/ so CPU and heap
	// profiles can be pulled while a load scenario runs. Gate it behind
	// the same operator flag as the other debug routes — profiles expose
	// process internals.
	Pprof bool
}

// Gateway is the HTTP front-end. Construct with New, mount Handler.
type Gateway struct {
	cfg Config
}

// New builds a gateway over a running loop.
func New(cfg Config) (*Gateway, error) {
	if cfg.Loop == nil {
		return nil, errors.New("httpapi: Config.Loop is required")
	}
	if cfg.DefaultMaxTokens <= 0 {
		cfg.DefaultMaxTokens = 256
	}
	if cfg.ModelName == "" {
		cfg.ModelName = "diffkv"
	}
	return &Gateway{cfg: cfg}, nil
}

// Handler returns the gateway's route table.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/completions", g.handleCompletions)
	mux.HandleFunc("/healthz", g.handleHealthz)
	mux.HandleFunc("/metrics", g.handleMetrics)
	if g.cfg.Trace != nil {
		mux.HandleFunc("/debug/requests/", g.handleDebugRequest)
		mux.HandleFunc("/debug/trace", g.handleDebugTrace)
		mux.HandleFunc("/debug/events", g.handleDebugEvents)
	}
	if g.cfg.Telemetry != nil {
		mux.HandleFunc("/debug/telemetry", g.handleTelemetry)
		mux.HandleFunc("/debug/telemetry/stream", g.handleTelemetryStream)
	}
	if g.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// instanceHealth is one instance's entry in the /healthz report.
type instanceHealth struct {
	Inst         int    `json:"inst"`
	Health       string `json:"health"`
	QueueDepth   int    `json:"queue_depth"`
	Running      int    `json:"running"`
	Redispatched int    `json:"redispatched,omitempty"`
}

// handleHealthz reports liveness: 200 while serving, 503 with a
// Retry-After once the loop is draining or has stopped (graceful drain,
// forced stop, or a driver error), so load balancers stop routing here
// the moment Opens would start failing. Under fault injection the body
// carries per-instance health; a fleet serving through crashed or
// slowed instances reports status "degraded" but stays 200 — it still
// accepts work, and shedding it entirely would turn a partial failure
// into a total one.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := g.cfg.Loop.Metrics()
	d := m.Driver
	status := "ok"
	code := http.StatusOK
	switch {
	case m.Stopped:
		status = "stopped"
		if err := g.cfg.Loop.Err(); err != nil {
			status = "failed: " + err.Error()
		}
		code = http.StatusServiceUnavailable
	case m.Draining:
		status = "draining"
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", g.retryAfterHeader(m))
	default:
		for _, is := range d.PerInstance {
			if is.Health != "" && is.Health != "healthy" {
				status = "degraded"
				break
			}
		}
	}
	body := map[string]any{
		"status":         status,
		"model":          g.cfg.ModelName,
		"uptime_seconds": m.UptimeSeconds,
		"open_sessions":  d.OpenSessions,
		"completed":      m.Completed,
		"instances_up":   d.InstancesUp,
	}
	if d.Failed > 0 {
		body["failed"] = d.Failed
	}
	if len(d.PerInstance) > 0 {
		insts := make([]instanceHealth, 0, len(d.PerInstance))
		for _, is := range d.PerInstance {
			insts = append(insts, instanceHealth{
				Inst:         is.Inst,
				Health:       is.Health,
				QueueDepth:   is.QueueDepth,
				Running:      is.Running,
				Redispatched: is.Redispatched,
			})
		}
		body["instances"] = insts
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

// retryAfterHeader sizes the Retry-After hint from the live queue: a
// client told to come back should not return while the backlog it was
// shed over is still draining. The mean end-to-end latency is the
// telemetry center's (lifetime-exact: Sum/Count of its E2E histogram);
// without a center the hint is the floor.
func (g *Gateway) retryAfterHeader(m LoopMetrics) string {
	var meanE2E float64
	if tc := g.cfg.Telemetry; tc != nil {
		l := tc.LatencyHists()
		meanE2E = l.E2E.Mean()
	}
	d := m.Driver
	return strconv.Itoa(retryAfterHint(retryAfter, meanE2E, d.QueueDepth, d.InstancesUp))
}

// retryAfterHint estimates queue-drain time in whole seconds: the mean
// end-to-end latency of completed requests, times the queued backlog,
// spread over the instances still up — clamped to [floor, 60s]. With no
// completions yet (mean 0) it falls back to the configured floor.
func retryAfterHint(floor time.Duration, meanE2ESec float64, queued, up int) int {
	if up < 1 {
		up = 1
	}
	est := int(math.Ceil(meanE2ESec * float64(queued) / float64(up)))
	min := int((floor + time.Second - 1) / time.Second)
	if est < min {
		est = min
	}
	if est > 60 {
		est = 60
	}
	return est
}

// errorBody is the OpenAI-style error envelope.
type errorBody struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
		Code    string `json:"code,omitempty"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, typ, msg string) {
	var body errorBody
	body.Error.Message = msg
	body.Error.Type = typ
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// writeOpenError maps a Loop.Open failure onto HTTP: saturation
// (cluster admission shed) and shutdown are 503 with a Retry-After so
// well-behaved clients back off and retry elsewhere; anything else is a
// caller error. The saturation hint is adaptive — sized from the queue
// backlog per live instance, not a fixed constant — so a brownout tells
// clients how long the brownout actually is.
func (g *Gateway) writeOpenError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrAllSaturated):
		w.Header().Set("Retry-After", g.retryAfterHeader(g.cfg.Loop.Metrics()))
		writeError(w, http.StatusServiceUnavailable, "overloaded", err.Error())
	case errors.Is(err, ErrLoopShutdown):
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
		writeError(w, http.StatusServiceUnavailable, "shutting_down", err.Error())
	default:
		writeError(w, http.StatusBadRequest, "invalid_request_error", err.Error())
	}
}
