package diffkv

// Scenario is the declarative, JSON-serializable description of one
// serving setup: model, compression method, precision tiers, workload,
// device count, and optionally a multi-instance cluster with routing,
// preemption and host-memory offload. Build translates it into a ready
// ClusterServer stack; the CLIs are thin flag-to-Scenario
// translations, and a spec checked into a file reproduces a run exactly
// (sampling is seeded, so Requests is deterministic too).

import (
	"fmt"
	"os"
	"sort"

	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/httpapi"
	"diffkv/internal/quant"
	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
	"diffkv/internal/workload"
)

// WorkloadSpec selects the request stream of a scenario. Exactly one
// arrival shape applies: a non-empty Trace replays the hand-authored
// request list verbatim; RatePerSec > 0 samples open-loop Poisson
// arrivals over Seconds; otherwise Requests are sampled closed-loop at
// time zero (CoT biases their generations toward the limit, the paper's
// Fig. 17 setting). Prefix adds shared-prompt-prefix structure to the
// sampled shapes. Trace excludes every sampling field including Bench —
// a trace defines its own lengths and arrivals.
type WorkloadSpec struct {
	Bench      string         `json:"bench,omitempty"`
	Requests   int            `json:"requests,omitempty"`
	RatePerSec float64        `json:"rate_per_sec,omitempty"`
	Seconds    float64        `json:"seconds,omitempty"`
	CoT        bool           `json:"cot,omitempty"`
	Prefix     *PrefixConfig  `json:"prefix,omitempty"`
	Trace      []TraceRequest `json:"trace,omitempty"`
}

// TraceRequest is one hand-authored request of a trace workload: an
// explicit ID (unique across the trace — Build rejects duplicates),
// arrival time and token counts, replayed exactly as written.
type TraceRequest struct {
	ID           int     `json:"id"`
	ArrivalSec   float64 `json:"arrival_sec,omitempty"`
	PromptTokens int     `json:"prompt_tokens"`
	GenTokens    int     `json:"gen_tokens"`
	PrefixGroup  int     `json:"prefix_group,omitempty"`
	PrefixLen    int     `json:"prefix_len,omitempty"`
}

// PrecisionSpec names the storage tiers of a method that runs the real
// page manager (KxVy notation, e.g. "K8V4"; empty fields keep the
// paper's K8V4 / K4V2 defaults).
type PrecisionSpec struct {
	Hi string `json:"hi,omitempty"`
	Lo string `json:"lo,omitempty"`
}

// ClusterSpec turns a scenario into a multi-instance cluster: Instances
// serving engines behind the named routing policy (any name reported by
// RoutingPolicies, including runtime registrations).
type ClusterSpec struct {
	Instances          int     `json:"instances"`
	Routing            string  `json:"routing,omitempty"`
	MaxQueueDepth      int     `json:"max_queue_depth,omitempty"`
	BlockTokens        int     `json:"block_tokens,omitempty"`
	AffinityQueueBound int     `json:"affinity_queue_bound,omitempty"`
	IndexCapacity      int     `json:"index_capacity,omitempty"`
	TTFTSLOSec         float64 `json:"ttft_slo_sec,omitempty"`
	TPOTSLOSec         float64 `json:"tpot_slo_sec,omitempty"`
}

// GatewaySpec configures the network-facing HTTP gateway over a built
// stack: where to listen, how to pace the simulation against wall time,
// and per-request defaults. It parameterizes cmd/diffkv-gateway; the
// library Build path carries it through untouched.
type GatewaySpec struct {
	// Listen is the HTTP listen address (default "127.0.0.1:8080").
	Listen string `json:"listen,omitempty"`
	// TimeScale paces engine steps against simulated time: 1 is real
	// time, 0.1 is 10x faster than real time, 0 (default) runs flat out.
	TimeScale float64 `json:"time_scale,omitempty"`
	// DefaultMaxTokens bounds generations when a completion request
	// omits max_tokens (default 256).
	DefaultMaxTokens int `json:"default_max_tokens,omitempty"`
	// DrainTimeoutSec bounds graceful shutdown: how long Shutdown may
	// drain in-flight sessions before the loop is stopped hard
	// (default 30).
	DrainTimeoutSec float64 `json:"drain_timeout_sec,omitempty"`
}

// ObservabilitySpec turns on the trace pipeline for a scenario — the
// serving stack emits lifecycle events into a bounded collector, from
// which the gateway's /debug routes serve span trees and Perfetto
// downloads and the trace CLI computes phase-attributed latency — and
// tunes the telemetry center every stack owns.
type ObservabilitySpec struct {
	// TraceEvents caps the collector ring (default 65536; the oldest
	// events are dropped beyond it and counted in
	// diffkv_trace_dropped_total).
	TraceEvents int `json:"trace_events,omitempty"`
	// PerfettoPath, when set, makes diffkv-gateway write the retained
	// events as a Perfetto trace-event file there on shutdown.
	PerfettoPath string `json:"perfetto_path,omitempty"`
	// Debug mounts the gateway's /debug routes (per-request span trees,
	// trace download, live event tail) and, with it, net/http/pprof
	// under /debug/pprof/.
	Debug bool `json:"debug,omitempty"`
	// SampleIntervalMs is the telemetry sampling cadence in simulated
	// milliseconds (default 1000). Samples ride the cluster's event loop
	// at sim time, so a seeded run's telemetry timeline is
	// deterministic.
	SampleIntervalMs float64 `json:"sample_interval_ms,omitempty"`
	// SeriesCapacity bounds each telemetry time-series ring
	// (default 512).
	SeriesCapacity int `json:"series_capacity,omitempty"`
	// SLOs declares the objectives the telemetry center evaluates with
	// multi-window burn rates (see SLOSpec); burn-rate transitions emit
	// alert trace events and drive the diffkv_slo_* gauges.
	SLOs []SLOSpec `json:"slos,omitempty"`
	// Saturation overrides the saturation analyzer's waterlines and
	// hysteresis holds.
	Saturation *SaturationConfig `json:"saturation,omitempty"`
}

// telemetryConfig translates the observability section into a telemetry
// center configuration; a nil section takes every default. tr (usually
// the scenario's trace collector) receives the alert events; nil keeps
// alerts snapshot-only.
func (o *ObservabilitySpec) telemetryConfig(tr Tracer) telemetry.Config {
	cfg := telemetry.Config{Tracer: tr}
	if o == nil {
		return cfg
	}
	cfg.SampleIntervalUs = o.SampleIntervalMs * 1e3
	cfg.SeriesCapacity = o.SeriesCapacity
	cfg.SLOs = o.SLOs
	if o.Saturation != nil {
		cfg.Saturation = *o.Saturation
	}
	return cfg
}

// Scenario is one complete serving configuration. Zero values select the
// documented defaults, so minimal specs stay minimal:
//
//	{"model": "Llama3-8B", "method": "DiffKV", "workload": {"bench": "MATH"}}
type Scenario struct {
	// Name labels the scenario in output (optional).
	Name string `json:"name,omitempty"`
	// Model is a model-zoo name (see ModelByName).
	Model string `json:"model"`
	// Method is a registered serving method name (see Methods).
	Method string `json:"method"`
	// MemFrac is the measured resident memory fraction of DiffKV-style
	// methods (<= 0 selects the method's default; fixed-trait methods
	// ignore it).
	MemFrac float64 `json:"mem_frac,omitempty"`
	// Precision overrides the page-manager storage tiers (methods with a
	// compression pipeline only).
	Precision *PrecisionSpec `json:"precision,omitempty"`
	// Device names the GPU model ("L40", the default and currently only
	// calibrated device); GPUs is the tensor-parallel size per instance.
	Device string `json:"device,omitempty"`
	GPUs   int    `json:"gpus,omitempty"`
	// MaxGenLen truncates generations (default 4096).
	MaxGenLen int `json:"max_gen_len,omitempty"`
	// MemoryReserve holds back a fraction of post-weights memory
	// (default 0.1, below 1; raise it to oversubscribe KV and exercise
	// preemption).
	MemoryReserve float64 `json:"memory_reserve,omitempty"`
	// PrefixCacheGroups enables per-instance prefix caching (0 disables).
	PrefixCacheGroups int `json:"prefix_cache_groups,omitempty"`
	// Preemption is the preemption recovery policy: one of recompute,
	// swap, compress-swap (default "recompute"; swap policies need
	// HostMemoryGB > 0).
	Preemption string `json:"preemption,omitempty"`
	// HostMemoryGB sizes the host offload tier per instance (0 disables).
	HostMemoryGB float64 `json:"host_memory_gb,omitempty"`
	// Workload selects the request stream.
	Workload WorkloadSpec `json:"workload"`
	// BrownoutQueueDepth enables graceful degradation under queue
	// pressure: once an instance's admission queue is at least this deep,
	// new sequences are admitted at the deepest compression tier
	// (all-low) instead of waiting for headroom (0 disables).
	BrownoutQueueDepth int `json:"brownout_queue_depth,omitempty"`
	// Cluster sizes and routes the instances; absent, Build makes one
	// instance with round-robin routing, no queue bound and no prefix
	// index.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Disaggregation, when present, splits the cluster into prefill and
	// decode pools: instances 1..prefill_pool run prompt passes only, the
	// next decode_pool instances adopt shipped prefills only, and any
	// remainder serves mixed. Each request becomes a prefill sub-request
	// and a decode sub-request joined by a compressed cross-instance KV
	// transfer over the device NIC model. Requires a cluster section with
	// at least prefill_pool+decode_pool instances and excludes Faults;
	// unless the cluster names a routing policy, it selects disagg-aware
	// routing.
	Disaggregation *DisaggPools `json:"disaggregation,omitempty"`
	// Faults, when present, injects a deterministic fault plan into the
	// cluster run (requires Cluster): scheduled or rate-sampled instance
	// crashes, transient slowdowns, a PCIe transfer error rate and the
	// re-dispatch retry policy. Build seeds the plan from Seed; the
	// plan's own Seed is ignored. The scenario seed thus drives schedule
	// expansion, backoff jitter and PCIe fault draws, so a checked-in
	// chaos spec reproduces its failures exactly.
	Faults *FaultPlan `json:"faults,omitempty"`
	// Gateway configures the HTTP serving front-end (diffkv-gateway):
	// listen address, time pacing and request defaults. Absent, the
	// gateway binary falls back to its flag defaults; the library Build
	// path ignores it.
	Gateway *GatewaySpec `json:"gateway,omitempty"`
	// Observability enables request-lifecycle tracing and tunes the
	// stack's telemetry center: diffkv-gateway builds a collector sized
	// by it, wires it as the Tracer, and serves the /debug routes when
	// Debug is set. The library Build path leaves collector construction
	// to the caller (set Tracer directly).
	Observability *ObservabilitySpec `json:"observability,omitempty"`
	Seed          uint64             `json:"seed,omitempty"`
	// Tracer, when non-nil, receives the built stack's cluster and engine
	// events, tagged with 1-based instance IDs. It is runtime-only state,
	// not part of the spec.
	Tracer Tracer `json:"-"`
}

// Stack is a scenario translated into live objects. Cluster is always
// set — a spec without a cluster section is a one-instance cluster —
// ready for Run, Open-driven sessions, manual stepping, or an always-on
// Loop (StartLoop). Benchmark is nil for trace workloads, which carry
// their own request shapes.
type Stack struct {
	Scenario  Scenario
	Model     *Model
	Benchmark *Benchmark
	Method    Method
	Cluster   *ClusterServer
	// Server is a view of the one engine of a spec without a cluster
	// section (Cluster.Engines()[0]), nil otherwise, for callers that
	// step a single engine by hand. Driving it and Cluster both on one
	// stack is undefined.
	Server *Server
	// Telemetry is the stack's telemetry center, never nil: Build always
	// creates one, tuned by the observability section when there is one,
	// and attaches it at the cluster — the one layer that feeds it.
	Telemetry *TelemetryCenter
}

// StartLoop starts the always-on driver over the stack's cluster: the
// returned Loop owns the step cadence in a background goroutine,
// accepts Open from any goroutine, and drains through Shutdown. The
// caller must eventually call Shutdown.
func (st *Stack) StartLoop(cfg LoopConfig) *Loop { return httpapi.NewLoop(st.Cluster, cfg) }

// LoadScenario reads and parses a scenario JSON file. Unknown fields are
// an error, so typos in specs fail loudly instead of silently selecting
// defaults.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("diffkv: scenario: %w", err)
	}
	return ParseScenario(data)
}

// withDefaults returns a copy with zero values resolved to defaults.
func (s Scenario) withDefaults() Scenario {
	if s.Device == "" {
		s.Device = "L40"
	}
	if s.GPUs <= 0 {
		s.GPUs = 1
	}
	if s.MaxGenLen <= 0 {
		s.MaxGenLen = 4096
	}
	if s.Workload.RatePerSec > 0 && s.Workload.Seconds <= 0 {
		s.Workload.Seconds = 60
	}
	if s.Workload.RatePerSec <= 0 && s.Workload.Requests <= 0 && len(s.Workload.Trace) == 0 {
		s.Workload.Requests = 64
	}
	if c := s.Cluster; c != nil {
		// Instances stays as written: the cluster layer rejects < 1, and
		// silently defaulting would mask a broken spec
		cc := *c
		if cc.Routing == "" {
			cc.Routing = cluster.PolicyRoundRobin
			if s.Disaggregation != nil {
				cc.Routing = cluster.PolicyDisaggAware
			}
		}
		s.Cluster = &cc
	}
	return s
}

// Validate resolves every name in the spec against its registry and
// checks cross-field constraints, returning the first error. Building
// the stack is also how the remaining names (routing, preemption)
// resolve against their registries, so Validate builds one and lets it
// be collected.
func (s Scenario) Validate() error {
	_, err := s.Build()
	return err
}

// Build translates the scenario into a ready stack: the model, benchmark
// and method are resolved from their registries, and a ClusterServer is
// constructed — a spec without a cluster section becomes one instance
// with round-robin routing, no queue bound and no prefix index. Each
// Build returns a fresh stack — servers serve one run.
func (s Scenario) Build() (*Stack, error) {
	s = s.withDefaults()
	st := &Stack{Scenario: s}

	var err error
	if st.Model, err = ModelByName(s.Model); err != nil {
		return nil, fmt.Errorf("diffkv: scenario: %w", err)
	}
	if st.Method, err = MethodByName(s.Method); err != nil {
		return nil, fmt.Errorf("diffkv: scenario: %w", err)
	}
	if len(s.Workload.Trace) > 0 {
		// a trace workload defines its own lengths and arrivals; nothing
		// may also select a sampler
		if err := validateTrace(s.Workload); err != nil {
			return nil, fmt.Errorf("diffkv: scenario: %w", err)
		}
	} else if st.Benchmark, err = BenchmarkByName(s.Workload.Bench); err != nil {
		return nil, fmt.Errorf("diffkv: scenario: %w", err)
	}
	if s.Device != "L40" {
		return nil, fmt.Errorf("diffkv: scenario: unknown device %q (calibrated devices: L40)", s.Device)
	}
	if s.Workload.CoT && (s.Workload.RatePerSec > 0 || s.Workload.Prefix != nil) {
		// Requests would pick the Poisson/prefix sampler and drop the CoT
		// bias without a trace — reject instead of silently mis-sampling
		return nil, fmt.Errorf("diffkv: scenario: workload cot only applies to plain closed-loop sampling (drop rate_per_sec/prefix)")
	}
	if s.Faults != nil && s.Cluster == nil {
		// fault injection needs survivors to re-dispatch to, which only a
		// cluster section can ask for
		return nil, fmt.Errorf("diffkv: scenario: faults require a cluster section")
	}
	if d := s.Disaggregation; d != nil {
		if s.Cluster == nil {
			// the prefill and decode pools are cluster instances; one
			// instance has nothing to ship KV between
			return nil, fmt.Errorf("diffkv: scenario: disaggregation requires a cluster section")
		}
		if s.Faults != nil {
			return nil, fmt.Errorf("diffkv: scenario: disaggregation cannot be combined with faults (transfer re-routing across crashed instances is not modeled)")
		}
	}
	if o := s.Observability; o != nil {
		for i, slo := range o.SLOs {
			if err := slo.Validate(); err != nil {
				return nil, fmt.Errorf("diffkv: scenario: observability.slos[%d]: %w", i, err)
			}
		}
	}

	ec := serving.Config{
		Model:              st.Model,
		Traits:             st.Method.ServingTraits(s.MemFrac),
		MaxGenLen:          s.MaxGenLen,
		MemoryReserve:      s.MemoryReserve,
		PrefixCacheGroups:  s.PrefixCacheGroups,
		PreemptPolicy:      s.Preemption,
		HostMemoryBytes:    int64(s.HostMemoryGB * float64(1<<30)),
		BrownoutQueueDepth: s.BrownoutQueueDepth,
		Seed:               s.Seed,
	}
	if hook, ok := st.Method.(CompressionHook); ok {
		setup := hook.Compression()
		ec.UseManager = setup.UseManager
		ec.HiFrac, ec.LoFrac = setup.HiFrac, setup.LoFrac
	}
	if p := s.Precision; p != nil {
		if !ec.UseManager {
			return nil, fmt.Errorf("diffkv: scenario: precision requires a method with a compression pipeline (%s has none)", s.Method)
		}
		if p.Hi != "" {
			if ec.HiPrec, err = quant.ByName(p.Hi); err != nil {
				return nil, fmt.Errorf("diffkv: scenario: %w", err)
			}
		}
		if p.Lo != "" {
			if ec.LoPrec, err = quant.ByName(p.Lo); err != nil {
				return nil, fmt.Errorf("diffkv: scenario: %w", err)
			}
		}
	}

	cc := clusterConfig(s, ec)
	st.Telemetry = telemetry.New(s.Observability.telemetryConfig(s.Tracer))
	cc.Telemetry = st.Telemetry
	if st.Cluster, err = cluster.New(cc); err != nil {
		return nil, err
	}
	if s.Cluster == nil {
		st.Server = st.Cluster.Engines()[0]
	}
	return st, nil
}

// clusterConfig translates spec + engine config into a cluster Config.
// Every instance gets its own GPU cluster (engines cannot share one).
func clusterConfig(s Scenario, ec serving.Config) ClusterServerConfig {
	ec.Cluster = gpusim.NewCluster(gpusim.L40(), s.GPUs)
	cc := ClusterServerConfig{Instances: 1, Engine: ec, Tracer: s.Tracer, Seed: s.Seed}
	if c := s.Cluster; c != nil {
		cc.Instances = c.Instances
		cc.Policy = c.Routing
		cc.MaxQueueDepth = c.MaxQueueDepth
		cc.BlockTokens = c.BlockTokens
		cc.IndexCapacity = c.IndexCapacity
		cc.AffinityQueueBound = c.AffinityQueueBound
		cc.TTFTSLOUs = c.TTFTSLOSec * 1e6
		cc.TPOTSLOUs = c.TPOTSLOSec * 1e6
	}
	if s.Faults != nil {
		// a copy, so the caller's plan keeps its own Seed
		p := *s.Faults
		p.Seed = s.Seed
		cc.Faults = &p
	}
	cc.Disagg = s.Disaggregation
	return cc
}

// validateTrace checks a hand-authored trace workload: no sampler
// fields alongside it, and every request well-formed with a unique
// positive ID — a duplicate would collide in the engine's session and
// page-manager tables, so Build rejects it outright.
func validateTrace(w WorkloadSpec) error {
	if w.Bench != "" || w.Requests > 0 || w.RatePerSec > 0 || w.Seconds > 0 || w.CoT || w.Prefix != nil {
		return fmt.Errorf("workload trace excludes bench/requests/rate_per_sec/seconds/cot/prefix (the trace is the workload)")
	}
	seen := make(map[int]int, len(w.Trace))
	for i, tr := range w.Trace {
		if tr.ID <= 0 {
			return fmt.Errorf("workload trace[%d]: id must be > 0 (got %d)", i, tr.ID)
		}
		if j, dup := seen[tr.ID]; dup {
			return fmt.Errorf("workload trace[%d]: duplicate request id %d (first used by trace[%d])", i, tr.ID, j)
		}
		seen[tr.ID] = i
		if tr.PromptTokens <= 0 || tr.GenTokens <= 0 {
			return fmt.Errorf("workload trace[%d] (id %d): prompt_tokens and gen_tokens must be > 0", i, tr.ID)
		}
		if tr.ArrivalSec < 0 {
			return fmt.Errorf("workload trace[%d] (id %d): arrival_sec must be >= 0", i, tr.ID)
		}
		if tr.PrefixLen < 0 || tr.PrefixLen > tr.PromptTokens {
			return fmt.Errorf("workload trace[%d] (id %d): prefix_len must be in [0, prompt_tokens]", i, tr.ID)
		}
	}
	return nil
}

// Requests samples the scenario's workload deterministically from its
// seed: the same spec always yields the same request stream, which is
// what makes a checked-in scenario file a reproducible experiment.
// Trace workloads are replayed verbatim in arrival order.
func (st *Stack) Requests() []Request {
	s := st.Scenario
	w := s.Workload
	if len(w.Trace) > 0 {
		reqs := make([]Request, len(w.Trace))
		for i, tr := range w.Trace {
			reqs[i] = Request{
				ID:          tr.ID,
				ArrivalUs:   tr.ArrivalSec * 1e6,
				PromptLen:   tr.PromptTokens,
				GenLen:      tr.GenTokens,
				PrefixGroup: tr.PrefixGroup,
				PrefixLen:   tr.PrefixLen,
			}
		}
		sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].ArrivalUs < reqs[b].ArrivalUs })
		return reqs
	}
	g := workload.NewRequestGen(st.Benchmark, s.MaxGenLen, s.Seed)
	switch {
	case w.RatePerSec > 0 && w.Prefix != nil:
		return g.PoissonShared(w.RatePerSec, w.Seconds, *w.Prefix)
	case w.RatePerSec > 0:
		return g.Poisson(w.RatePerSec, w.Seconds)
	case w.Prefix != nil:
		reqs := make([]Request, w.Requests)
		for i := range reqs {
			reqs[i] = g.NextShared(0, *w.Prefix)
		}
		return reqs
	case w.CoT:
		return g.CoTBatch(w.Requests)
	default:
		return g.Batch(w.Requests)
	}
}
