package diffkv

// Scenario is the declarative, JSON-serializable description of one
// serving setup: model, compression method, precision tiers, workload,
// device count, and optionally a multi-instance cluster with routing,
// preemption and host-memory offload. Build translates it into a ready
// Server or ClusterServer stack; the CLIs are thin flag-to-Scenario
// translations, and a spec checked into a file reproduces a run exactly
// (sampling is seeded, so Requests is deterministic too).

import (
	"fmt"
	"os"
	"sort"

	"diffkv/internal/cluster"
	"diffkv/internal/quant"
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

// DisaggSpec splits a cluster scenario into prefill/decode pools:
// instances 1..PrefillPool run prompt passes only, the next DecodePool
// instances adopt shipped prefills only, and any remainder serves
// mixed. Each request becomes a prefill sub-request and a decode
// sub-request joined by a compressed cross-instance KV transfer over
// the device NIC model. Requires a cluster section with at least
// PrefillPool+DecodePool instances; cannot be combined with faults.
// Unless the cluster names a routing policy, disaggregated scenarios
// default to disagg-aware routing.
type DisaggSpec struct {
	PrefillPool int `json:"prefill_pool"`
	DecodePool  int `json:"decode_pool"`
}

// FaultsSpec declares the scenario's deterministic fault-injection
// plan (cluster scenarios only): scheduled or rate-sampled instance
// crashes, transient slowdowns, a PCIe transfer error rate, and the
// re-dispatch retry policy. The scenario seed drives schedule
// expansion, backoff jitter and PCIe fault draws, so a checked-in
// chaos spec reproduces its failures exactly.
type FaultsSpec struct {
	// Crashes and Slowdowns schedule explicit fault events.
	Crashes   []CrashSpec    `json:"crashes,omitempty"`
	Slowdowns []SlowdownSpec `json:"slowdowns,omitempty"`
	// CrashRatePerMin > 0 adds seeded random crashes per instance with
	// exponential interarrivals, each down for an exponentially
	// distributed time of mean MeanDownSec (default 5), out to
	// HorizonSec (default 120).
	CrashRatePerMin float64 `json:"crash_rate_per_min,omitempty"`
	MeanDownSec     float64 `json:"mean_down_sec,omitempty"`
	HorizonSec      float64 `json:"horizon_sec,omitempty"`
	// PCIeErrorRate is the per-transfer probability that a host<->device
	// KV copy faults (swap-out falls back to recompute, swap-in retries).
	PCIeErrorRate float64 `json:"pcie_error_rate,omitempty"`
	// RetryBudget caps re-dispatches per request after crashes: 0
	// selects the default (3), negative disables retries entirely.
	RetryBudget int `json:"retry_budget,omitempty"`
	// RetryBaseMs is the base exponential re-dispatch backoff
	// (default 50).
	RetryBaseMs float64 `json:"retry_base_ms,omitempty"`
}

// CrashSpec schedules one instance crash: Instance is 1-based,
// DownSec <= 0 means the instance never restarts.
type CrashSpec struct {
	Instance int     `json:"instance"`
	AtSec    float64 `json:"at_sec"`
	DownSec  float64 `json:"down_sec,omitempty"`
}

// SlowdownSpec schedules one transient degraded window: the instance
// keeps serving with step time multiplied by Factor (> 1) and the
// router down-weights it.
type SlowdownSpec struct {
	Instance int     `json:"instance"`
	AtSec    float64 `json:"at_sec"`
	DurSec   float64 `json:"dur_sec"`
	Factor   float64 `json:"factor"`
}

// faultPlan translates the spec into the internal fault plan, seeded
// from the scenario seed.
func faultPlan(s Scenario) *FaultPlan {
	f := s.Faults
	p := &FaultPlan{
		Seed:            s.Seed,
		CrashRatePerMin: f.CrashRatePerMin,
		MeanDownSec:     f.MeanDownSec,
		HorizonSec:      f.HorizonSec,
		PCIeErrorRate:   f.PCIeErrorRate,
		RetryBudget:     f.RetryBudget,
		RetryBaseMs:     f.RetryBaseMs,
	}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, FaultCrash{Inst: c.Instance, AtSec: c.AtSec, DownSec: c.DownSec})
	}
	for _, sl := range f.Slowdowns {
		p.Slowdowns = append(p.Slowdowns, FaultSlowdown{Inst: sl.Instance, AtSec: sl.AtSec, DurSec: sl.DurSec, Factor: sl.Factor})
	}
	return p
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

// ObservabilitySpec turns on the trace pipeline for a scenario: the
// serving stack emits lifecycle events into a bounded collector, from
// which the gateway's /debug routes serve span trees and Perfetto
// downloads and the trace CLI computes phase-attributed latency.
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
	// milliseconds (default 1000). Samples ride the driver's step loop
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

// Telemetry reports whether the spec asks for the telemetry center (an
// SLO section, a saturation section, or an explicit cadence).
func (o *ObservabilitySpec) Telemetry() bool {
	return o != nil && (len(o.SLOs) > 0 || o.Saturation != nil || o.SampleIntervalMs > 0)
}

// TelemetryConfig translates the observability section into a telemetry
// center configuration. tr (usually the scenario's trace collector)
// receives the alert events; nil keeps alerts snapshot-only.
func (o *ObservabilitySpec) TelemetryConfig(tr Tracer) TelemetryConfig {
	cfg := TelemetryConfig{Tracer: tr}
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
	// Model is a model-zoo name (see Models / ModelByName).
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
	// (default 0.1; raise it to oversubscribe KV and exercise preemption).
	MemoryReserve float64 `json:"memory_reserve,omitempty"`
	// PrefixCacheGroups enables per-instance prefix caching (0 disables).
	PrefixCacheGroups int `json:"prefix_cache_groups,omitempty"`
	// Preemption is a registered preemption recovery policy name
	// (default "recompute"; swap policies need HostMemoryGB > 0).
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
	// Cluster, when present, builds a multi-instance cluster instead of a
	// single server.
	Cluster *ClusterSpec `json:"cluster,omitempty"`
	// Disaggregation, when present, splits the cluster into prefill and
	// decode pools joined by compressed cross-instance KV transfers
	// (requires Cluster; excludes Faults).
	Disaggregation *DisaggSpec `json:"disaggregation,omitempty"`
	// Faults, when present, injects the declared fault plan into the
	// cluster run (requires Cluster).
	Faults *FaultsSpec `json:"faults,omitempty"`
	// Gateway configures the HTTP serving front-end (diffkv-gateway):
	// listen address, time pacing and request defaults. Absent, the
	// gateway binary falls back to its flag defaults; the library Build
	// path ignores it.
	Gateway *GatewaySpec `json:"gateway,omitempty"`
	// Observability enables request-lifecycle tracing: diffkv-gateway
	// builds a collector sized by it, wires it as the Tracer, and serves
	// the /debug routes when Debug is set. The library Build path leaves
	// collector construction to the caller (set Tracer directly).
	Observability *ObservabilitySpec `json:"observability,omitempty"`
	Seed          uint64             `json:"seed,omitempty"`
	// Tracer, when non-nil, receives the built stack's engine (and
	// cluster) events. It is runtime-only state, not part of the spec.
	Tracer Tracer `json:"-"`
}

// Stack is a scenario translated into live objects: exactly one of
// Server (single instance) or Cluster (ClusterSpec present) is non-nil,
// ready for Run, Open-driven sessions, manual stepping, or an always-on
// Loop (StartLoop). Benchmark is nil for trace workloads, which carry
// their own request shapes.
type Stack struct {
	Scenario  Scenario
	Model     *Model
	Benchmark *Benchmark
	Method    Method
	Server    *Server
	Cluster   *ClusterServer
	// Telemetry is the telemetry center Build created when the
	// observability section asked for one (SLOs, saturation tuning, or an
	// explicit cadence). Cluster builds attach it at the cluster layer;
	// single-instance builds leave it for StartLoop to attach to the Loop
	// — exactly one layer ever samples into it.
	Telemetry *TelemetryCenter
}

// StartLoop starts the always-on driver over the stack's server or
// cluster: the returned Loop owns the step cadence in a background
// goroutine, accepts Open from any goroutine, and drains through
// Shutdown. The caller must eventually call Shutdown.
func (st *Stack) StartLoop(cfg LoopConfig) *Loop {
	if st.Cluster != nil {
		// a cluster build's telemetry center is already attached at the
		// cluster layer — attaching it to the Loop too would double-count
		return NewLoop(st.Cluster, cfg)
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = st.Telemetry
	}
	return NewLoop(st.Server, cfg)
}

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
// checks cross-field constraints, returning the first error.
func (s Scenario) Validate() error {
	_, err := s.build(false)
	return err
}

// Build translates the scenario into a ready stack: the model, benchmark
// and method are resolved from their registries, and a Server (or, with
// a ClusterSpec, a ClusterServer) is constructed. Each Build returns a
// fresh stack — servers serve one run.
func (s Scenario) Build() (*Stack, error) {
	return s.build(true)
}

func (s Scenario) build(construct bool) (*Stack, error) {
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
		// fault injection lives in the cluster event loop (health, routing,
		// re-dispatch); a single server has no survivors to re-dispatch to
		return nil, fmt.Errorf("diffkv: scenario: faults require a cluster section")
	}
	if d := s.Disaggregation; d != nil {
		if s.Cluster == nil {
			// the prefill and decode pools are cluster instances; a single
			// server has nothing to ship KV between
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

	ec := ServerConfig{
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
	if s.Cluster == nil {
		// single-instance: the tracer attaches to the engine directly;
		// cluster builds attach it at the cluster level instead, which
		// instance-tags every engine's events
		ec.Tracer = s.Tracer
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
	if !construct {
		// Validate path: constructing the stack is also how the remaining
		// names (routing, preemption) resolve against their registries,
		// so build it and let it be collected
		if s.Cluster != nil {
			_, err = NewClusterServer(clusterConfig(s, ec))
		} else {
			_, err = NewServer(withCluster(ec, s.GPUs))
		}
		if err != nil {
			return nil, err
		}
		return st, nil
	}

	if o := s.Observability; o.Telemetry() {
		st.Telemetry = NewTelemetryCenter(o.TelemetryConfig(s.Tracer))
	}

	if s.Cluster != nil {
		cc := clusterConfig(s, ec)
		cc.Telemetry = st.Telemetry
		if st.Cluster, err = NewClusterServer(cc); err != nil {
			return nil, err
		}
	} else {
		if st.Server, err = NewServer(withCluster(ec, s.GPUs)); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// withCluster attaches the GPU cluster (engines cannot share one).
func withCluster(ec ServerConfig, gpus int) ServerConfig {
	ec.Cluster = NewCluster(L40(), gpus)
	return ec
}

// clusterConfig translates spec + engine config into a cluster Config.
func clusterConfig(s Scenario, ec ServerConfig) ClusterServerConfig {
	c := s.Cluster
	cc := ClusterServerConfig{
		Instances:          c.Instances,
		Engine:             withCluster(ec, s.GPUs),
		Policy:             c.Routing,
		MaxQueueDepth:      c.MaxQueueDepth,
		BlockTokens:        c.BlockTokens,
		IndexCapacity:      c.IndexCapacity,
		AffinityQueueBound: c.AffinityQueueBound,
		TTFTSLOUs:          c.TTFTSLOSec * 1e6,
		TPOTSLOUs:          c.TPOTSLOSec * 1e6,
		Tracer:             s.Tracer,
		Seed:               s.Seed,
	}
	if s.Faults != nil {
		cc.Faults = faultPlan(s)
	}
	if d := s.Disaggregation; d != nil {
		cc.Disagg = &DisaggPools{PrefillInstances: d.PrefillPool, DecodeInstances: d.DecodePool}
	}
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
		if tr.PrefixLen > tr.PromptTokens {
			return fmt.Errorf("workload trace[%d] (id %d): prefix_len exceeds prompt_tokens", i, tr.ID)
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
