// Package diffkv is the public API of the DiffKV reproduction: a
// differentiated KV-cache compression and memory-management system for LLM
// serving (Zhang et al., SOSP 2025), built on a calibrated simulation
// substrate (see DESIGN.md).
//
// The package exposes three layers:
//
//   - the compression engine (NewEngine / Engine.RunSequence): runs the
//     full DiffKV pipeline — prompt-phase classification, Algorithm 1
//     generation-phase compression, paged storage, compressed attention —
//     and reports fidelity and memory;
//   - the serving simulator (NewServer / Server.Run): continuous batching
//     with the real counts-mode page manager and the GPU cost model;
//   - the experiment harnesses (RunExperiment): regenerate every table and
//     figure of the paper's evaluation.
//
// Quick start:
//
//	eng, _ := diffkv.NewEngine(diffkv.EngineConfig{
//	    Model:  diffkv.Llama3_8B,
//	    Params: diffkv.DefaultParams("Llama3-8B"),
//	})
//	res, _ := eng.RunSequence(512, 512, 1)
//	fmt.Printf("error %.3f at %.0f%% memory\n", res.OutputErr, 100*res.MemFrac)
package diffkv

import (
	"diffkv/internal/baselines"
	"diffkv/internal/cluster"
	"diffkv/internal/core"
	"diffkv/internal/disagg"
	"diffkv/internal/experiments"
	"diffkv/internal/faults"
	"diffkv/internal/gpusim"
	"diffkv/internal/offload"
	"diffkv/internal/policy"
	"diffkv/internal/quant"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// Model describes a served model's architecture (layers, KV heads, GQA
// ratio, head dimension).
type Model = synth.ModelConfig

// The model zoo evaluated in the paper.
var (
	Llama3_8B  = synth.Llama3_8B
	Llama31_8B = synth.Llama31_8B
	Llama3_70B = synth.Llama3_70B
	Qwen25_7B  = synth.Qwen25_7B
	Qwen25_32B = synth.Qwen25_32B
	QwQ_32B    = synth.QwQ_32B
	R1Qwen_14B = synth.R1Qwen_14B
	R1Llama_8B = synth.R1Llama_8B
)

// Models lists every configured model.
var Models = synth.Models

// ModelByName looks a model up by display name (e.g. "Llama3-8B").
func ModelByName(name string) (*Model, error) { return synth.ModelByName(name) }

// Precision is a differentiated key/value bit-width configuration.
type Precision = quant.Precision

// Standard precision tiers.
var (
	FP16 = quant.FP16
	K8V8 = quant.K8V8
	K8V4 = quant.K8V4
	K4V2 = quant.K4V2
	K8V2 = quant.K8V2
	K4V4 = quant.K4V4
)

// PolicyParams are the calibrated compression-policy thresholds
// (αh, αl, recent window W).
type PolicyParams = policy.Params

// DefaultParams returns the calibrated parameters for a model name
// (paper Fig. 10).
func DefaultParams(model string) PolicyParams { return policy.ParamsForModel(model) }

// EngineConfig parameterizes the compression engine.
type EngineConfig = core.Config

// Engine runs the full DiffKV pipeline on synthetic sequences.
type Engine = core.Engine

// SequenceResult reports one sequence's fidelity, memory fraction and
// tier breakdown.
type SequenceResult = core.SequenceResult

// NewEngine builds a compression engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.NewEngine(cfg) }

// Benchmark is one evaluation workload profile.
type Benchmark = workload.Benchmark

// The benchmark suites of the paper's evaluation.
var (
	BenchGSM8K     = workload.GSM8K
	BenchMATH      = workload.MATH
	BenchMMLU      = workload.MMLU
	BenchMMLUPro   = workload.MMLUPro
	BenchHumanEval = workload.HumanEvalPlus
	BenchMBPP      = workload.MBPPPlus
	BenchGPQA      = workload.GPQA
	BenchAIME24    = workload.AIME24

	CoreBenchmarks     = workload.CoreBenchmarks
	ThinkingBenchmarks = workload.ThinkingBenchmarks
	LongBench          = workload.LongBench
)

// BenchmarkByName finds a benchmark across all suites.
func BenchmarkByName(name string) (*Benchmark, error) { return workload.ByName(name) }

// ServerConfig parameterizes the serving simulator.
type ServerConfig = serving.Config

// Server is the discrete-event serving engine.
type Server = serving.Engine

// ServingResult aggregates throughput, batch size, latency and the
// per-component step breakdown.
type ServingResult = serving.Result

// NewServer builds a serving engine.
func NewServer(cfg ServerConfig) (*Server, error) { return serving.NewEngine(cfg) }

// Device is the GPU hardware model; L40 is the paper's evaluation GPU.
type Device = gpusim.Device

// L40 returns the NVIDIA L40 device model (48 GB).
func L40() *Device { return gpusim.L40() }

// NewCluster groups n identical devices into a tensor-parallel cluster.
func NewCluster(d *Device, n int) *gpusim.Cluster { return gpusim.NewCluster(d, n) }

// Request is one serving request.
type Request = workload.Request

// NewRequestGen samples serving requests from a benchmark profile.
func NewRequestGen(b *Benchmark, maxGenLen int, seed uint64) *workload.RequestGen {
	return workload.NewRequestGen(b, maxGenLen, seed)
}

// ServingTraits describe how a compression method behaves inside the
// serving engine (resident memory, attention bytes, host overheads).
type ServingTraits = baselines.ServingTraits

// Method describes a compression method to the serving layers: a name
// plus the ServingTraits driving the serving cost model. Implement it —
// optionally together with CompressionHook — and register with
// RegisterMethod to run a custom method through servers, clusters and
// scenarios without touching internals.
type Method = baselines.ServingMethod

// CompressionSetup carries the engine knobs of methods that run a real
// compression pipeline (page manager, tier fractions) beyond traits.
type CompressionSetup = baselines.CompressionSetup

// CompressionHook is optionally implemented by Methods backed by a real
// compression pipeline; scenario building consults it so the method —
// not the caller — decides how the serving engine is configured.
type CompressionHook = baselines.CompressionHook

// RegisterMethod adds a serving method to the registry. Names must be
// non-empty and unique; the builtin paper methods are pre-registered.
func RegisterMethod(m Method) error { return baselines.RegisterServingMethod(m) }

// MethodByName looks a registered serving method up by name.
func MethodByName(name string) (Method, error) { return baselines.ServingMethodByName(name) }

// Methods lists registered serving method names — the builtins ("vLLM",
// "Quest", "SnapKV", "Atom", "KIVI", "DiffKV") followed by third-party
// registrations, derived from the registry.
func Methods() []string { return baselines.ServingMethods() }

// ExperimentOpts tune experiment cost (repetitions, fast mode, seed).
type ExperimentOpts = experiments.Opts

// ResultTable is a formatted experiment result.
type ResultTable = experiments.Table

// RunExperiment regenerates one of the paper's tables or figures by ID
// (fig2..fig17, tab1..tab3).
func RunExperiment(id string, o ExperimentOpts) ([]*ResultTable, error) {
	return experiments.Run(id, o)
}

// ExperimentIDs lists the available experiment IDs.
func ExperimentIDs() []string { return experiments.IDs() }

// ClusterServerConfig parameterizes the multi-instance cluster simulator:
// N serving engines behind a router with a pluggable routing policy,
// admission control and SLO accounting.
type ClusterServerConfig = cluster.Config

// ClusterServer runs N serving instances behind a router.
type ClusterServer = cluster.Cluster

// ClusterMetrics aggregates one cluster run: TTFT/TPOT/E2E percentiles,
// goodput, per-instance utilization and load imbalance.
type ClusterMetrics = cluster.Metrics

// DisaggPools sizes the prefill and decode pools of a disaggregated
// cluster (ClusterServerConfig.Disagg): instances [0, Prefill) run
// prompt passes, the next Decode instances adopt shipped prefills, any
// remainder serves mixed.
type DisaggPools = disagg.Config

// DisaggMetrics summarizes a disaggregated run's cross-instance KV
// shipments (ClusterMetrics.Disagg; nil without disaggregation).
type DisaggMetrics = cluster.DisaggMetrics

// InstanceRole tags a serving instance's disaggregation pool.
type InstanceRole = disagg.Role

// Instance pool roles of a disaggregated cluster.
const (
	RolePrefill = disagg.RolePrefill
	RoleDecode  = disagg.RoleDecode
	RoleMixed   = disagg.RoleMixed
)

// RoutingPolicy picks a target instance for each request from routable
// instance snapshots. Implementations must be deterministic.
type RoutingPolicy = cluster.Policy

// RoutingSnapshot is the router's view of one serving instance at
// dispatch time (queue depth, running count, resident/swapped tokens).
type RoutingSnapshot = cluster.Snapshot

// RoutingPolicyFactory builds a fresh policy instance per cluster —
// routing policies are stateful (cursors, prefix indexes), so the
// registry holds factories.
type RoutingPolicyFactory = cluster.PolicyFactory

// RegisterRoutingPolicy adds a routing policy factory under name; the
// name becomes valid in ClusterServerConfig.Policy and Scenario specs.
func RegisterRoutingPolicy(name string, f RoutingPolicyFactory) error {
	return cluster.RegisterPolicy(name, f)
}

// RoutingPolicies lists registered routing policy names — builtins
// followed by third-party registrations, derived from the registry.
func RoutingPolicies() []string { return cluster.Policies() }

// NewClusterServer builds a multi-instance cluster simulator.
func NewClusterServer(cfg ClusterServerConfig) (*ClusterServer, error) {
	return cluster.New(cfg)
}

// ServingCompletion is one finished request with its TTFT/TPOT-defining
// timestamps plus per-request preemption count and retry timestamps,
// returned by the steppable Server API (Server.Step).
type ServingCompletion = serving.Completion

// PreemptRecoveryPolicy picks the victim and recovery action when a
// serving step runs out of KV pages. Implementations must be
// deterministic.
type PreemptRecoveryPolicy = offload.RecoveryPolicy

// PreemptVictim describes one preemption candidate to a recovery policy.
type PreemptVictim = offload.Victim

// PreemptRecovery is the recovery action of a preemption policy.
type PreemptRecovery = offload.Recovery

// Recovery actions a custom PreemptRecoveryPolicy can return.
const (
	RecoverRecompute    = offload.RecoverRecompute
	RecoverSwap         = offload.RecoverSwap
	RecoverCompressSwap = offload.RecoverCompressSwap
)

// PreemptPolicyFactory builds a fresh recovery policy instance per
// serving engine.
type PreemptPolicyFactory = offload.PolicyFactory

// RegisterPreemptPolicy adds a preemption recovery policy factory under
// name; the name becomes valid in ServerConfig.PreemptPolicy and
// Scenario specs.
func RegisterPreemptPolicy(name string, f PreemptPolicyFactory) error {
	return offload.RegisterPolicy(name, f)
}

// PreemptPolicies lists registered preemption recovery policy names —
// builtins followed by third-party registrations, derived from the
// registry.
func PreemptPolicies() []string { return offload.Policies() }

// OffloadMetrics snapshots host-tier activity (swap bytes each way,
// thrashing, prefix spillover hits), reported in ServingResult.Offload.
type OffloadMetrics = offload.Metrics

// PrefixConfig parameterizes shared-prompt-prefix sampling
// (RequestGen.NextShared / PoissonShared): production traffic concentrates
// on a few system prompts, which prefix-affinity routing exploits.
type PrefixConfig = workload.PrefixConfig

// Tracer receives serving-engine events (admissions, preemptions,
// completions, step timings); TraceCollector is the bounded in-memory
// implementation.
type Tracer = trace.Tracer

// TraceCollector is a bounded in-memory tracer with summarization and
// JSONL export.
type TraceCollector = trace.Collector

// NewTraceCollector creates a collector holding at most capacity events
// (<=0 selects the default, 65536).
func NewTraceCollector(capacity int) *TraceCollector { return trace.NewCollector(capacity) }

// TraceEvent is one traced occurrence (see the trace package's Kind
// constants for the event vocabulary).
type TraceEvent = trace.Event

// TraceKind classifies a TraceEvent.
type TraceKind = trace.Kind

// The trace event vocabulary, re-exported so event streams can be
// filtered without importing the internal trace package.
const (
	TraceKindOpen          = trace.KindOpen
	TraceKindAdmit         = trace.KindAdmit
	TraceKindFirstToken    = trace.KindFirstToken
	TraceKindPromptStep    = trace.KindPromptStep
	TraceKindGenStep       = trace.KindGenStep
	TraceKindPreempt       = trace.KindPreempt
	TraceKindSwapOut       = trace.KindSwapOut
	TraceKindSwapIn        = trace.KindSwapIn
	TraceKindHostPrefixHit = trace.KindHostPrefixHit
	TraceKindComplete      = trace.KindComplete
	TraceKindCancel        = trace.KindCancel
	TraceKindDispatch      = trace.KindDispatch
	TraceKindReject        = trace.KindReject
	TraceKindHealth        = trace.KindHealth
	TraceKindRetry         = trace.KindRetry
	TraceKindRecover       = trace.KindRecover
	TraceKindFail          = trace.KindFail
	TraceKindAlert         = trace.KindAlert
)

// TracePhase classifies where a request's lifecycle time is spent; the
// phase constants cover queue, prefill, decode and the preemption
// phases stall / swapped.
type TracePhase = trace.Phase

// Lifecycle phases of PhaseBreakdown (exactly one is active at any
// instant of a request's life).
const (
	PhaseQueue   = trace.PhaseQueue
	PhasePrefill = trace.PhasePrefill
	PhaseDecode  = trace.PhaseDecode
	PhaseStall   = trace.PhaseStall
	PhaseSwapped = trace.PhaseSwapped
)

// PhaseBreakdown attributes a request's end-to-end latency across
// lifecycle phases; its buckets sum to completion minus arrival.
type PhaseBreakdown = trace.PhaseBreakdown

// TraceSpan is one node of a request's reconstructed span tree.
type TraceSpan = trace.Span

// TraceRequestSpans is the reconstructed lifecycle of one request: its
// root span plus the phase-attributed latency breakdown.
type TraceRequestSpans = trace.RequestSpans

// BuildRequestSpans regroups a trace event stream into one span tree
// per request (see trace.BuildRequestSpans).
func BuildRequestSpans(events []TraceEvent) []*TraceRequestSpans {
	return trace.BuildRequestSpans(events)
}

// Session is a per-request streaming handle over the serving engine:
// Server.Open (or ClusterServer.Open) submits the request and returns
// the handle; token progress streams through its OnToken callback while
// the engine is driven (Step / DrainContext); cancelling it —
// explicitly or via the Open context — frees the request's KV pages and
// host-tier state immediately instead of finishing the generation.
type Session = serving.Session

// TokenUpdate is one token-progress notification delivered to a
// Session's OnToken callback.
type TokenUpdate = serving.TokenUpdate

// ErrSessionCancelled is the terminal error of a cancelled Session.
var ErrSessionCancelled = serving.ErrCancelled

// ErrClusterSaturated is returned by ClusterServer.Open when admission
// control sheds the request (every instance at the queue bound).
var ErrClusterSaturated = cluster.ErrAllSaturated

// ErrRequestFailed is the terminal error of a Session whose request was
// lost to an instance crash and whose re-dispatch retry budget ran out
// (fault injection only; see FaultPlan).
var ErrRequestFailed = serving.ErrFailed

// FaultPlan declares deterministic fault injection for a cluster run:
// scheduled or rate-sampled instance crashes (with optional restarts),
// transient slowdowns, a PCIe transfer error rate, and the re-dispatch
// retry budget. Attach via ClusterServerConfig.Faults or a Scenario's
// "faults" section; the same plan and seed always reproduce the same
// timeline.
type FaultPlan = faults.Plan

// FaultCrash schedules one instance crash in a FaultPlan (1-based
// instance; DownSec <= 0 makes it permanent).
type FaultCrash = faults.Crash

// FaultSlowdown schedules one transient degraded window in a FaultPlan:
// the instance keeps serving with its step time multiplied by Factor.
type FaultSlowdown = faults.Slowdown

// InstanceHealthState is an instance's fault-injection health as
// reported by cluster metrics and the gateway's /healthz.
type InstanceHealthState = cluster.Health

// Instance health states under fault injection.
const (
	InstanceHealthy  = cluster.Healthy
	InstanceDegraded = cluster.Degraded
	InstanceDown     = cluster.Down
)

// Loop is the always-on driver of the serving API: it owns a Server's
// (or ClusterServer's) step cadence in a background goroutine, makes
// Open safe from many goroutines, paces steps against simulated time
// (LoopConfig.TimeScale) and drains gracefully through Shutdown — the
// concurrency boundary the HTTP gateway, and any other network
// front-end, builds on. Construct with NewLoop or Stack.StartLoop.
type Loop = serving.Loop

// LoopConfig parameterizes a Loop (time pacing, idle poll interval).
type LoopConfig = serving.LoopConfig

// LoopDriver is the steppable surface a Loop drives; *Server and
// *ClusterServer both implement it.
type LoopDriver = serving.Driver

// LoopMetrics snapshots a running Loop: loop-level TTFT/TPOT/E2E
// latency distributions plus the driver's counters (LoopDriverStats).
type LoopMetrics = serving.LoopMetrics

// LoopDriverStats is the driver-level counter snapshot inside
// LoopMetrics (queue depth, KV page occupancy, preemptions, offload
// traffic, throughput/goodput).
type LoopDriverStats = serving.DriverStats

// LoopLatencyStats summarizes one latency distribution in seconds.
type LoopLatencyStats = serving.LatencyStats

// ErrLoopShutdown is returned by Loop.Open once Shutdown has begun.
var ErrLoopShutdown = serving.ErrLoopShutdown

// NewLoop starts an always-on driving loop over a Server or
// ClusterServer. The caller must eventually call Shutdown to stop the
// background goroutine.
func NewLoop(d LoopDriver, cfg LoopConfig) *Loop { return serving.NewLoop(d, cfg) }

// TelemetryCenter is the cluster-level observability core: per-instance
// time-series rings sampled on a sim-time cadence, mergeable latency
// histograms, a saturation analyzer with hysteretic scale advisories,
// and multi-window SLO burn-rate alerts. Attach one to
// LoopConfig.Telemetry (always-on serving) or
// ClusterServerConfig.Telemetry (batch runs) — exactly one of the two.
type TelemetryCenter = telemetry.Center

// TelemetryConfig parameterizes a TelemetryCenter (cadence, ring
// capacity, alert tracer, saturation tuning, SLOs).
type TelemetryConfig = telemetry.Config

// NewTelemetryCenter builds a telemetry center.
func NewTelemetryCenter(cfg TelemetryConfig) *TelemetryCenter { return telemetry.New(cfg) }

// TelemetrySnapshot is the full telemetry state at one instant — the
// payload of the gateway's /debug/telemetry route and diffkv-top's
// input.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryAlert is one emitted saturation advisory or SLO burn-rate
// transition (also mirrored as an "alert" trace event).
type TelemetryAlert = telemetry.Alert

// SLOSpec declares one service-level objective for the telemetry
// center: a latency percentile target (ttft/tpot/e2e) or a goodput
// floor, evaluated as multi-window burn rates over sim time.
type SLOSpec = telemetry.SLOSpec

// SLOStatus is one objective's evaluated burn-rate state.
type SLOStatus = telemetry.SLOStatus

// SaturationConfig tunes the saturation analyzer: headroom waterlines,
// hysteresis hold counts, advisory cooldown and the trend window.
type SaturationConfig = telemetry.SatConfig

// ReplayTelemetry reconstructs an offline telemetry snapshot from a
// recorded trace event stream (queue/running occupancy, latency
// histograms, swap totals and the alert timeline; capacity-derived
// fields are unavailable offline).
func ReplayTelemetry(events []TraceEvent) TelemetrySnapshot { return telemetry.Replay(events) }
