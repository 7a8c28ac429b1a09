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
//   - the serving simulator (Scenario.Build / ClusterServer.Run): 1..N
//     continuous-batching instances with the real counts-mode page
//     manager and the GPU cost model;
//   - the experiment harnesses (RunExperiment): regenerate every table and
//     figure of the paper's evaluation.
//
// Quick start:
//
//	model, _ := diffkv.ModelByName("Llama3-8B")
//	eng, _ := diffkv.NewEngine(diffkv.EngineConfig{
//	    Model:  model,
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
	"diffkv/internal/httpapi"
	"diffkv/internal/policy"
	"diffkv/internal/serving"
	"diffkv/internal/synth"
	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// Model describes a served model's architecture (layers, KV heads, GQA
// ratio, head dimension).
type Model = synth.ModelConfig

// ModelByName looks a model up by display name (e.g. "Llama3-8B").
func ModelByName(name string) (*Model, error) { return synth.ModelByName(name) }

// PolicyParams are the calibrated compression-policy thresholds
// (αh, αl, recent window W).
type PolicyParams = policy.Params

// DefaultParams returns the calibrated parameters for a model name
// (paper Fig. 10).
func DefaultParams(model string) PolicyParams { return policy.ParamsForModel(model) }

// EngineConfig parameterizes the compression engine.
type EngineConfig = core.Config

// Engine runs the full DiffKV pipeline on synthetic sequences.
// RunSequence runs a sequence's sampled heads on up to GOMAXPROCS
// goroutines; its result is the same for every GOMAXPROCS.
type Engine = core.Engine

// NewEngine builds a compression engine.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.NewEngine(cfg) }

// Benchmark is one evaluation workload profile.
type Benchmark = workload.Benchmark

// BenchmarkByName finds a benchmark across all suites.
func BenchmarkByName(name string) (*Benchmark, error) { return workload.ByName(name) }

// Server is the discrete-event serving engine.
type Server = serving.Engine

// ServingResult aggregates throughput, batch size, latency and the
// per-component step breakdown.
type ServingResult = serving.Result

// Request is one serving request.
type Request = workload.Request

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

// ClusterServerConfig parameterizes the multi-instance cluster simulator:
// N serving engines behind a router with a pluggable routing policy,
// admission control and SLO accounting.
type ClusterServerConfig = cluster.Config

// ClusterServer runs N serving instances behind a router.
type ClusterServer = cluster.Cluster

// DisaggPools sizes the prefill and decode pools of a disaggregated
// cluster (ClusterServerConfig.Disagg, or a Scenario's
// "disaggregation" section): instances [0, PrefillInstances) run prompt
// passes, the next DecodeInstances adopt shipped prefills, any
// remainder serves mixed.
type DisaggPools = disagg.Config

// RoutingPolicy picks a target instance for each request from routable
// instance snapshots. The slice Pick receives is the cluster's live
// routable view: implementations must not modify it, must not keep it
// past the call, and must be deterministic.
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

// ServingCompletion is one finished request with its TTFT/TPOT-defining
// timestamps plus per-request preemption count and retry timestamps,
// returned by the steppable Server API (Server.Step).
type ServingCompletion = serving.Completion

// PrefixConfig parameterizes shared-prompt-prefix sampling
// (RequestGen.NextShared / PoissonShared): production traffic concentrates
// on a few system prompts, which prefix-affinity routing exploits.
type PrefixConfig = workload.PrefixConfig

// Tracer receives serving-engine events (admissions, preemptions,
// completions, step timings); TraceCollector is the bounded in-memory
// implementation.
type Tracer = trace.Tracer

// TraceCollector is a bounded in-memory tracer with summarization and
// Perfetto export.
type TraceCollector = trace.Collector

// NewTraceCollector creates a collector holding at most capacity events
// (<=0 selects the default, 65536).
func NewTraceCollector(capacity int) *TraceCollector { return trace.NewCollector(capacity) }

// Session is a per-request streaming handle over the serving engine:
// ClusterServer.Open routes the request, submits it and returns the
// handle; token progress streams through its OnToken callback while the
// cluster is driven (Step / DrainContext); cancelling it —
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
// "faults" section, which Build seeds from the scenario seed; the same
// plan and seed always reproduce the same timeline.
type FaultPlan = faults.Plan

// Loop is the always-on driver of the serving API: it owns a
// ClusterServer's step cadence in a background goroutine (a spec without
// a cluster section is a one-instance ClusterServer), makes Open safe
// from many goroutines, paces steps against simulated time
// (LoopConfig.TimeScale) and drains gracefully through Shutdown — the
// concurrency boundary the HTTP gateway, and any other network
// front-end, builds on. It lives with the gateway, at the real-time
// edge; the simulated-time packages never read the wall clock.
// Construct with Stack.StartLoop.
type Loop = httpapi.Loop

// LoopConfig parameterizes a Loop (simulated-to-wall time pacing).
type LoopConfig = httpapi.LoopConfig

// ErrLoopShutdown is returned by Loop.Open once Shutdown has begun.
var ErrLoopShutdown = httpapi.ErrLoopShutdown

// TelemetryCenter is the cluster-level observability core: per-instance
// time-series rings sampled on a sim-time cadence, mergeable latency
// histograms, a saturation analyzer with hysteretic scale advisories,
// and multi-window SLO burn-rate alerts. Every Scenario.Build stack owns
// one (Stack.Telemetry); it attaches only at the cluster
// (ClusterServerConfig.Telemetry), whose event loop feeds it whether
// Run, Step or a Loop drives the cluster.
type TelemetryCenter = telemetry.Center

// SLOSpec declares one service-level objective for the telemetry
// center: a latency percentile target (ttft/tpot/e2e) or a goodput
// floor, evaluated as multi-window burn rates over sim time.
type SLOSpec = telemetry.SLOSpec

// SaturationConfig tunes the saturation analyzer: headroom waterlines,
// hysteresis hold counts, advisory cooldown and the trend window.
type SaturationConfig = telemetry.SatConfig
