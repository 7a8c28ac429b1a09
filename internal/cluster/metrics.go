package cluster

import (
	"math"
	"slices"

	"diffkv/internal/serving"
	"diffkv/internal/stats"
	"diffkv/internal/workload"
)

// Quantiles summarizes a latency distribution in seconds.
type Quantiles = stats.LatencySummary

// InstanceShare reports one instance's share of the run.
type InstanceShare struct {
	Dispatched       int
	Completed        int
	DispatchedTokens int
	// BusySeconds is simulated time spent executing steps.
	BusySeconds float64
	// Utilization is BusySeconds over the cluster makespan.
	Utilization float64
	// Redispatched counts crash orphans this instance accepted from
	// other instances' failures (0 without a fault plan).
	Redispatched int
	// Role is the instance's disaggregation pool ("prefill", "decode",
	// "mixed"); empty without disaggregation. Under disaggregation a
	// prefill instance's Dispatched and a decode instance's Completed
	// need not match: requests enter through one pool and leave through
	// the other.
	Role string
}

// Metrics aggregates one cluster run: request accounting, SLO latency
// percentiles, goodput and load balance.
type Metrics struct {
	Policy    string
	Instances int

	Submitted  int
	Dispatched int
	Rejected   int
	Completed  int
	// Cancelled counts dispatched session requests cancelled mid-flight
	// (their KV state was freed without completing; 0 in batch runs).
	Cancelled int
	// Failed counts dispatched requests terminally failed by fault
	// injection: their instance crashed and the re-dispatch retry budget
	// ran out (0 without a fault plan).
	Failed int

	// ElapsedSeconds is the cluster makespan (latest instance clock).
	ElapsedSeconds float64
	// ThroughputTokensPerSec counts generated tokens per second.
	ThroughputTokensPerSec float64

	// TTFT is time to first token, TPOT time per output token after the
	// first, E2E arrival-to-completion — all in seconds.
	TTFT, TPOT, E2E Quantiles

	// GoodputReqPerSec counts completions meeting both SLOs per second;
	// GoodputFrac is their fraction of dispatched requests.
	GoodputReqPerSec float64
	GoodputFrac      float64

	PerInstance     []InstanceShare
	MeanUtilization float64
	// LoadImbalanceCV is the coefficient of variation (std/mean) of
	// per-instance busy time: 0 = perfectly balanced.
	LoadImbalanceCV float64

	// PrefixCacheHitFrac is the fraction of completed requests' prompt
	// tokens served from instance prefix caches.
	PrefixCacheHitFrac float64

	// Preemptions counts preemption events across all instances
	// (recompute and swap recoveries); PreemptedRequests counts completed
	// requests that were preempted at least once — with the per-request
	// retry timestamps in serving.Completion this makes TTFT/TPOT under
	// preemption honestly attributable.
	Preemptions       int
	PreemptedRequests int

	// Host-tier offload activity summed over instances (zero when the
	// tier is disabled): bytes swapped each way, PCIe stall time not
	// hidden behind compute, the thrashing rate (fraction of swap-ins
	// within the thrash window of their swap-out) and prefix-cache
	// entries served back from host memory.
	SwapOutBytes     int64
	SwapInBytes      int64
	SwapStallSeconds float64
	ThrashRate       float64
	HostPrefixHits   int

	// Fault-injection recovery accounting (all zero without a fault
	// plan). Redispatches counts crash orphans re-dispatched to
	// survivors; SwapRecovered counts sequences the host tier carried
	// through a crash (resumed instead of recomputed); LostKVBytes is
	// the GPU KV footprint destroyed by crashes; BrownoutAdmits counts
	// admissions forced to the all-low tier under queue pressure.
	Crashes        int
	Restarts       int
	Redispatches   int
	SwapRecovered  int
	LostKVBytes    int64
	BrownoutAdmits int

	// Disagg summarizes the run's prefill→decode KV shipments (nil
	// without disaggregation).
	Disagg *DisaggMetrics
}

// Stuck counts dispatched requests that reached no terminal state:
// neither completed, cancelled, nor terminally failed by fault
// injection. After a drained run it must be 0 — the liveness invariant
// cluster tests assert — so failed requests count as accounted-for,
// not stuck.
func (m Metrics) Stuck() int { return m.Dispatched - m.Completed - m.Cancelled - m.Failed }

// accumulator collects per-event state during a run and finalizes Metrics.
type accumulator struct {
	cfg    Config
	m      Metrics
	ttft   []float64
	tpot   []float64
	e2e    []float64
	good   int
	genTok int64
	prompt int64
	cached int64
}

func newAccumulator(cfg Config, policy string) *accumulator {
	return &accumulator{
		cfg: cfg,
		m: Metrics{
			Policy:      policy,
			Instances:   cfg.Instances,
			PerInstance: make([]InstanceShare, cfg.Instances),
		},
	}
}

func (a *accumulator) reject() { a.m.Rejected++ }

func (a *accumulator) dispatch(inst int, r workload.Request) {
	a.m.Dispatched++
	a.m.PerInstance[inst].Dispatched++
	a.m.PerInstance[inst].DispatchedTokens += r.PromptLen + r.GenLen
}

func (a *accumulator) complete(inst int, cp serving.Completion) {
	a.m.Completed++
	a.m.PerInstance[inst].Completed++
	if cp.Preemptions > 0 {
		a.m.PreemptedRequests++
	}
	ttft, tpot, e2e := cp.LatencySec()
	a.ttft = append(a.ttft, ttft)
	a.tpot = append(a.tpot, tpot)
	a.e2e = append(a.e2e, e2e)
	if ttft*1e6 <= a.cfg.TTFTSLOUs && tpot*1e6 <= a.cfg.TPOTSLOUs {
		a.good++
	}
	a.genTok += int64(cp.Req.GenLen)
	a.prompt += int64(cp.Req.PromptLen)
	a.cached += int64(cp.CachedPrefixTokens)
}

// finish returns the Metrics accumulated so far, taking every counter
// the fleet snapshot ds already sums (Cluster.Stats) from it. PerInstance
// is a copy, so the overlays written here and by finishMetrics never
// reach a Metrics returned earlier.
func (a *accumulator) finish(engines []*serving.Engine, ds serving.DriverStats) Metrics {
	m := a.m
	m.PerInstance = slices.Clone(a.m.PerInstance)
	m.Cancelled = ds.Cancelled
	m.Failed = ds.Failed
	m.Preemptions = ds.Preemptions
	m.SwapOutBytes = ds.SwapOutBytes
	m.SwapInBytes = ds.SwapInBytes
	m.HostPrefixHits = ds.HostPrefixHits
	m.Crashes = ds.Crashes
	m.Restarts = ds.Restarts
	m.Redispatches = ds.Redispatches
	m.SwapRecovered = ds.SwapRecovered
	m.LostKVBytes = ds.LostKVBytes
	m.BrownoutAdmits = ds.BrownoutAdmits
	var thrash, swapIns int
	busy := make([]float64, len(engines))
	for i, e := range engines {
		busy[i] = e.BusyTime().Seconds()
		m.PerInstance[i].BusySeconds = busy[i]
		m.PerInstance[i].Redispatched = ds.PerInstance[i].Redispatched
		m.PerInstance[i].Role = ds.PerInstance[i].Role
		r := e.Result()
		m.SwapStallSeconds += r.OffloadStallSeconds
		thrash += r.Offload.ThrashEvents
		swapIns += r.Offload.SwapIns
	}
	if swapIns > 0 {
		m.ThrashRate = float64(thrash) / float64(swapIns)
	}
	m.ElapsedSeconds = ds.ClockUs / 1e6
	if m.ElapsedSeconds > 0 {
		m.ThroughputTokensPerSec = float64(a.genTok) / m.ElapsedSeconds
		m.GoodputReqPerSec = float64(a.good) / m.ElapsedSeconds
		for i := range m.PerInstance {
			m.PerInstance[i].Utilization = busy[i] / m.ElapsedSeconds
		}
	}
	if m.Dispatched > 0 {
		m.GoodputFrac = float64(a.good) / float64(m.Dispatched)
	}
	m.TTFT = stats.SummarizeLatency(a.ttft)
	m.TPOT = stats.SummarizeLatency(a.tpot)
	m.E2E = stats.SummarizeLatency(a.e2e)
	if a.prompt > 0 {
		m.PrefixCacheHitFrac = float64(a.cached) / float64(a.prompt)
	}

	var s stats.Summary
	for _, b := range busy {
		s.Add(b)
	}
	m.MeanUtilization = meanOf(m.PerInstance)
	if s.Mean() > 0 {
		// population-style CV over per-instance busy time
		m.LoadImbalanceCV = math.Sqrt(s.Var()*float64(s.N()-1)/float64(s.N())) / s.Mean()
	}
	return m
}

func meanOf(insts []InstanceShare) float64 {
	if len(insts) == 0 {
		return 0
	}
	var sum float64
	for _, is := range insts {
		sum += is.Utilization
	}
	return sum / float64(len(insts))
}
