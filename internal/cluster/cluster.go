// Package cluster runs N independent serving engines behind a router — the
// fleet-level layer over the per-GPU DiffKV engine. A discrete-event loop
// interleaves request dispatch with instance progress in global timestamp
// order (one next-event selector, events.go, in the spirit of
// inference-sim's cluster simulator).
// Routing policies are pluggable (round-robin, least-loaded,
// prefix-affinity over a prefix-hash KV index), admission control sheds
// load beyond a per-instance queue-depth bound, and the run reports
// cluster SLO metrics: TTFT/TPOT percentiles, goodput, per-instance
// utilization and load imbalance.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"diffkv/internal/disagg"
	"diffkv/internal/faults"
	"diffkv/internal/gpusim"
	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// ErrAllSaturated is returned by Open when every instance is at the
// admission bound — the request is shed, mirroring Run's reject path.
var ErrAllSaturated = errors.New("cluster: all instances saturated")

// Config parameterizes a cluster run.
type Config struct {
	// Instances is the number of serving engines (>= 1).
	Instances int
	// Engine is the per-instance serving configuration. Each instance
	// derives an independent seed from it, and when Tracer is set each
	// engine gets an instance-tagged tracer.
	Engine serving.Config
	// Policy selects the routing policy (PolicyRoundRobin,
	// PolicyLeastLoaded, PolicyPrefixAffinity, PolicyDisaggAware or a
	// name added with RegisterPolicy; default round-robin).
	Policy string
	// MaxQueueDepth bounds each instance's admission queue: an instance
	// at the bound is unroutable, and a request is shed when every
	// instance is at the bound. <= 0 disables shedding.
	MaxQueueDepth int
	// BlockTokens is the prefix-index block granularity in tokens
	// (prefix-affinity only; default 64).
	BlockTokens int
	// IndexCapacity bounds the prefix index in blocks (default 32768).
	IndexCapacity int
	// AffinityQueueBound is the queue depth at which prefix-affinity
	// abandons the affine instance for least-loaded (default 8).
	AffinityQueueBound int
	// TTFTSLOUs and TPOTSLOUs are the goodput SLO thresholds in
	// microseconds (defaults: 2e6 — 2 s to first token — and 1e5 —
	// 100 ms per output token).
	TTFTSLOUs float64
	TPOTSLOUs float64
	// Faults is the fault-injection plan (nil or disabled = no faults).
	// The cluster expands it into a deterministic crash / restart /
	// slowdown timeline interleaved with the event loop, and wires its
	// PCIe error rate into every instance's transfer path.
	Faults *faults.Plan
	// Disagg enables prefill/decode disaggregation: the fleet is split
	// into a prefill pool and a decode pool (plus an optional mixed
	// remainder), each request becomes a prefill sub-request and a
	// decode sub-request joined by a compressed cross-instance KV
	// transfer over the device NIC model (see disagg.go). Cannot be
	// combined with a fault plan — transfer re-routing across crashed
	// instances is not modeled.
	Disagg *disagg.Config
	// Tracer receives cluster dispatch/reject events plus every
	// instance's engine events, tagged with 1-based instance IDs.
	Tracer trace.Tracer
	// Telemetry, when set, is sampled on its sim-time cadence inside the
	// single-threaded event loop (Run / Step) and fed every dispatch and
	// completion, with its latencies and phase breakdown — this is what
	// makes a seeded run's alert timeline bit-identical across runs. It
	// is the one live latency store: the gateway's Loop driving the
	// cluster reaches the center through Step and keeps no latency of
	// its own. Every stack a scenario builds sets it; harnesses that
	// build a cluster directly may leave it nil.
	Telemetry *telemetry.Center
	Seed      uint64
}

func (c *Config) validate() error {
	if c.Instances < 1 {
		return fmt.Errorf("cluster: Instances must be >= 1 (got %d)", c.Instances)
	}
	if c.TTFTSLOUs <= 0 {
		c.TTFTSLOUs = 2e6
	}
	if c.TPOTSLOUs <= 0 {
		c.TPOTSLOUs = 1e5
	}
	return nil
}

// Cluster is the multi-instance serving simulator. It is driven either
// in batch mode (Run: route a request list, drain, return Metrics) or in
// session mode (Open per request + DrainContext + Metrics), not both.
type Cluster struct {
	cfg         Config
	engines     []*serving.Engine
	policy      Policy
	hasRun      bool
	sessionMode bool
	acc         *accumulator
	steps       int
	autoID      int
	// pending holds Run's not-yet-dispatched arrivals in arrival order
	// (always empty in session mode, where Open dispatches immediately)
	pending []workload.Request
	// dueQ is the scheduled work — KV shipments on the wire and crash
	// orphans waiting out their backoff — in firing order (events.go)
	dueQ []dueItem
	// the engines as last read back by touch (touch.go)
	fleetView

	// disaggregation coordinator state (disagg.go); nil without
	// Config.Disagg
	dg *disaggState

	// fault-injection state (faulttol.go); inj nil without a fault plan
	inj           *faults.Injector
	health        []Health
	perInstRedisp []int
	failedN       int
	redispatchN   int
	crashes       int
	restarts      int
	swapRecovered int
}

// clusterAutoIDBase keeps the session request IDs Open assigns clear of
// workload-generator IDs (counting up from 1). Open assigns before it
// routes, so every ID is fleet-unique. 3<<29 still fits a 32-bit int,
// and the gateway's completion IDs (cmpl-1610612737, … in README.md)
// are built on it.
const clusterAutoIDBase = 3 << 29

// New builds a cluster of cfg.Instances engines behind the configured
// routing policy.
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	policy, err := newPolicy(cfg)
	if err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, policy: policy, acc: newAccumulator(cfg, policy.Name())}
	if cfg.Disagg != nil {
		if err := cfg.Disagg.Validate(cfg.Instances); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if cfg.Faults != nil && cfg.Faults.Enabled() {
			return nil, fmt.Errorf("cluster: fault injection and disaggregation cannot be combined (transfer re-routing across crashed instances is not modeled)")
		}
		c.dg = newDisaggState(*cfg.Disagg, cfg.Instances)
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		inj, err := faults.New(*cfg.Faults, cfg.Instances)
		if err != nil {
			return nil, err
		}
		c.inj = inj
		c.health = make([]Health, cfg.Instances)
		for i := range c.health {
			c.health[i] = Healthy
		}
		c.perInstRedisp = make([]int, cfg.Instances)
	}
	for i := 0; i < cfg.Instances; i++ {
		ec := cfg.Engine
		ec.Seed = cfg.Seed + uint64(i)*7919
		if c.inj != nil && c.inj.Plan().PCIeErrorRate > 0 {
			// one shared fault stream: draws happen in step order, which
			// the single-threaded event loop keeps deterministic
			ec.XferFault = c.inj.XferFault
		}
		if cfg.Tracer != nil {
			ec.Tracer = trace.WithInstance(cfg.Tracer, i+1)
		}
		eng, err := serving.NewEngine(ec)
		if err != nil {
			return nil, fmt.Errorf("cluster: instance %d: %w", i+1, err)
		}
		c.engines = append(c.engines, eng)
	}
	c.initView(cfg.Instances)
	return c, nil
}

// Policy returns the active routing policy's name.
func (c *Cluster) Policy() string { return c.policy.Name() }

// Engines exposes the underlying serving engines for inspection. The
// cluster caches what it reads from them (touch), so callers must not
// change them.
func (c *Cluster) Engines() []*serving.Engine { return c.engines }

func (c *Cluster) emit(ev trace.Event) {
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(ev)
	}
}

// maxClusterSteps bounds the event loop against runaway simulations: an
// unservable request (e.g. a prompt that can never fit one instance's
// pages) recompute-preempts forever, and without a step bound the cluster
// would never return. Breaking leaves the request visible as
// Metrics.Stuck() > 0.
const maxClusterSteps = 20_000_000

// Run routes the request list through the cluster and drains every
// instance, returning aggregate SLO metrics. A cluster serves one run;
// Run and the session API (Open) are mutually exclusive.
func (c *Cluster) Run(reqs []workload.Request) (Metrics, error) {
	if c.hasRun {
		return Metrics{}, fmt.Errorf("cluster: Run called twice")
	}
	if c.sessionMode {
		return Metrics{}, fmt.Errorf("cluster: Run after Open (pick batch or session driving, not both)")
	}
	c.hasRun = true

	c.pending = append([]workload.Request(nil), reqs...)
	sort.SliceStable(c.pending, func(a, b int) bool {
		return c.pending[a].ArrivalUs < c.pending[b].ArrivalUs
	})
	c.acc.m.Submitted = len(reqs)
	err := c.DrainContext(context.Background())
	return c.finishMetrics(), err
}

// dispatch routes one request: snapshot the fleet, filter saturated
// instances (admission control), let the policy pick, and submit. Under
// disaggregation the prefill sub-request is submitted, marked so that its
// completion exports the sequence for the parent's decode half (settle /
// shipPrefill); accounting always sees the parent, so a request is
// dispatched once.
func (c *Cluster) dispatch(r workload.Request) {
	idx, ok := c.route(r)
	if !ok {
		c.shed(r)
		return
	}
	if c.dg != nil {
		pre, handoff := disagg.Split(r)
		c.engines[idx].Submit(pre)
		if handoff {
			c.engines[idx].MarkHandoff(r.ID, r.GenLen)
		}
	} else {
		c.engines[idx].Submit(r)
	}
	c.accept(r, idx)
}

// accept records a request placed on instance idx, batch or session: the
// cached view reads the engine back, then telemetry, the routing policy,
// the accumulator and the tracer see the dispatch at its arrival time.
func (c *Cluster) accept(r workload.Request, idx int) {
	c.touch(idx)
	if c.cfg.Telemetry != nil {
		c.cfg.Telemetry.RecordOpen(r.PromptLen)
	}
	c.observe(r, idx, r.ArrivalUs)
	c.acc.dispatch(idx, r)
	c.emit(trace.Event{Kind: trace.KindDispatch, TimeUs: r.ArrivalUs, Seq: r.ID, Inst: idx + 1})
}

// shed records a request admission control turned away: every instance
// was at the queue-depth bound at its arrival.
func (c *Cluster) shed(r workload.Request) {
	c.acc.reject()
	c.emit(trace.Event{Kind: trace.KindReject, TimeUs: r.ArrivalUs, Seq: r.ID})
}

// route lets the policy pick from the routable view touch keeps: live
// instances below the admission bound, saturated ones filtered out.
// Reports false when every instance is saturated. Under disaggregation
// decode-pool instances never take fresh prompts (they only adopt
// shipped prefills), so the view leaves them out regardless of the
// policy in use.
func (c *Cluster) route(r workload.Request) (int, bool) {
	if len(c.view) == 0 {
		return 0, false
	}
	return c.policy.Pick(r, c.view), true
}

// snapshots filters the cached snapshots of the live instances through
// keep, in ascending ID order — the fleet view of the two rare decisions,
// crash re-dispatch and decode-side placement. Crashed instances are never
// routable. Both run inside an event, where a token callback may have
// cancelled a session on another instance, so the cache is resynced
// first. The slice is valid until the next call.
func (c *Cluster) snapshots(keep func(s Snapshot) bool) []Snapshot {
	c.resync()
	c.filtered = c.filtered[:0]
	for i, s := range c.snap {
		if !c.down(i) && keep(s) {
			c.filtered = append(c.filtered, s)
		}
	}
	return c.filtered
}

// observe lets learning policies record the dispatch decision made at
// sim time nowUs: the arrival for a first dispatch, the re-dispatch time
// for a crash orphan.
func (c *Cluster) observe(r workload.Request, idx int, nowUs float64) {
	if obs, ok := c.policy.(observer); ok {
		obs.Observe(r, idx, nowUs)
	}
}

// Open routes one request and opens a session on the chosen instance —
// the online-serving counterpart of Run's batch dispatch. The context
// governs the request's lifetime (see serving.Engine.Open); the cluster
// must then be driven with DrainContext (or Step) for sessions to
// progress. Returns ErrAllSaturated when admission control sheds the
// request.
func (c *Cluster) Open(ctx context.Context, r workload.Request) (*serving.Session, error) {
	if c.hasRun {
		return nil, fmt.Errorf("cluster: Open after Run (pick batch or session driving, not both)")
	}
	if r.ID == 0 {
		// IDs are assigned here, before routing, so they are fleet-unique
		c.autoID++
		r.ID = clusterAutoIDBase + c.autoID
	}
	// read back engines a direct Session.Cancel changed since the last
	// event
	c.resync()
	// an online request cannot arrive in the simulated past: clamp it to
	// the fleet clock, so routing, fault state and the recorded arrival
	// all see the moment it was opened, whichever instance it lands on
	now := float64(c.Clock())
	r.ArrivalUs = max(r.ArrivalUs, now)
	// bring instance health up to the fleet clock before routing: a crash
	// due by now must exclude its instance from this decision. Faults due
	// before a future arrival fire later, in event order, so an Open never
	// runs them ahead of the engine steps due before them
	if c.inj != nil {
		if err := c.advanceFaults(now); err != nil {
			return nil, err
		}
	}
	idx, ok := c.route(r)
	if !ok {
		// a shed request was offered load: it counts as submitted and
		// latches session mode, unlike an invalid request below
		c.sessionMode = true
		c.acc.m.Submitted++
		c.shed(r)
		return nil, ErrAllSaturated
	}
	sub, handoff := r, false
	if c.dg != nil {
		sub, handoff = disagg.Split(r)
	}
	s, err := c.engines[idx].Open(ctx, sub)
	if err != nil {
		// invalid request (duplicate ID, no GenLen): no state changed, so
		// the cluster stays usable either way
		return nil, fmt.Errorf("cluster: instance %d: %w", idx+1, err)
	}
	c.sessionMode = true
	c.acc.m.Submitted++
	// under disaggregation the parent is accounted: the session handle
	// follows the KV across the handoff, and the request completes once,
	// on its decode instance
	if handoff {
		c.engines[idx].MarkHandoff(r.ID, r.GenLen)
	}
	c.accept(r, idx)
	return s, nil
}

// Step fires the earliest pending event (after reaping cancelled
// sessions) and returns the requests it completed — only an instance
// step completes any. With no pending event it is a cheap no-op returning
// (nil, nil), so the gateway's Loop can step every stack through it,
// one instance or many. One call is one event, so interleaved Open
// calls between steps model online arrivals.
func (c *Cluster) Step() ([]serving.Completion, error) {
	c.ReapSessions()
	return c.fire(c.next())
}

// Clock returns the latest simulated clock across instances: the running
// max touch keeps, engine clocks being monotone.
func (c *Cluster) Clock() gpusim.Micros { return c.clock }

// ReapSessions frees the state of context-cancelled sessions on every
// instance — cancellations free capacity and may idle an engine — and
// touches the engines a cancellation changed.
func (c *Cluster) ReapSessions() {
	if !c.sessionMode {
		return // no Open yet, so no session to reap
	}
	for _, e := range c.engines {
		e.ReapSessions()
	}
	c.resync()
}

// NextTime returns the simulated time of the earliest pending event and
// false when the cluster is idle.
func (c *Cluster) NextTime() (gpusim.Micros, bool) {
	c.resync()
	ev := c.next()
	return gpusim.Micros(ev.atUs), ev.class != evNone
}

// Stats snapshots the fleet's counters: the cluster's own admission,
// fault and handoff counts, each engine's Stats row tagged with its
// instance, and the engines' counters summed.
func (c *Cluster) Stats() serving.DriverStats {
	ds := serving.DriverStats{
		Instances:    len(c.engines),
		Failed:       c.failedN,
		Redispatches: c.redispatchN,
		Crashes:      c.crashes,
		Restarts:     c.restarts,
		Rejected:     c.acc.m.Rejected,
	}
	var genTok, doneTok float64
	ds.PerInstance = make([]serving.InstanceStats, 0, len(c.engines))
	for i, e := range c.engines {
		inst := e.Stats()
		inst.Inst = i + 1
		inst.Health = string(c.InstanceHealth(i))
		if c.dg != nil {
			inst.Role = string(c.dg.roles[i])
		}
		if c.perInstRedisp != nil {
			inst.Redispatched = c.perInstRedisp[i]
		}
		if !c.down(i) {
			ds.InstancesUp++
		}
		ds.PerInstance = append(ds.PerInstance, inst)
		ds.QueueDepth += inst.QueueDepth
		ds.Running += inst.Running
		ds.Swapped += inst.Swapped
		ds.Preemptions += inst.Preemptions
		ds.FreeKVPages += inst.FreeKVPages
		ds.UsedKVPages += inst.UsedKVPages
		ds.SwapOutBytes += inst.SwapOutBytes
		ds.SwapInBytes += inst.SwapInBytes
		r := e.Result()
		ds.Completed += r.Completed
		ds.Cancelled += e.CancelledSessions()
		ds.HostPrefixHits += r.Offload.PrefixHits
		ds.LostKVBytes += e.LostKVBytes()
		ds.BrownoutAdmits += e.BrownoutAdmits()
		clockUs := float64(e.Clock())
		ds.ClockUs = max(ds.ClockUs, clockUs)
		// per-instance rates are over each instance's own clock; recover
		// token counts and re-rate them over the cluster makespan
		genTok += r.Throughput * clockUs / 1e6
		doneTok += r.GoodputTokensPerSec * clockUs / 1e6
	}
	if ds.ClockUs > 0 {
		ds.ThroughputTokensPerSec = genTok / (ds.ClockUs / 1e6)
		ds.GoodputTokensPerSec = doneTok / (ds.ClockUs / 1e6)
	}
	ds.SwapRecovered = c.swapRecovered
	if c.dg != nil {
		// each shipped prefill child also counted as an engine completion;
		// subtract so Completed means whole requests, matching Metrics
		ds.Completed -= c.dg.transfers
		ds.KVTransfers = c.dg.transfers
		ds.KVBytesShipped = c.dg.bytes
		ds.KVShipLinks = c.dg.ledger.Links()
	}
	if c.sessionMode {
		// a session with its KV on the wire or its crash orphan in backoff
		// is on no engine: count every dispatched request not yet finished
		ds.OpenSessions = c.acc.m.Dispatched - ds.Completed - ds.Cancelled - ds.Failed
	}
	return ds
}

// finishMetrics finalizes the accumulator over one fleet snapshot, so
// Metrics and Stats agree on every counter they share.
func (c *Cluster) finishMetrics() Metrics {
	ds := c.Stats()
	m := c.acc.finish(c.engines, ds)
	if c.dg != nil {
		m.Disagg = &DisaggMetrics{
			PrefillInstances: c.dg.cfg.PrefillInstances,
			DecodeInstances:  c.dg.cfg.DecodeInstances,
			Transfers:        ds.KVTransfers,
			KVBytesShipped:   ds.KVBytesShipped,
			XferSeconds:      c.dg.xferUs / 1e6,
			Links:            ds.KVShipLinks,
		}
	}
	return m
}

// DrainContext fires events until none is pending, the context is done,
// or the step bound is hit — the deadline-respecting drain of the session
// API, and the whole of a batch Run. Metrics reports the state accumulated
// so far.
func (c *Cluster) DrainContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for c.steps < maxClusterSteps {
		if err := ctx.Err(); err != nil {
			return err
		}
		c.ReapSessions()
		ev := c.next()
		if ev.class == evNone {
			return nil
		}
		if _, err := c.fire(ev); err != nil {
			return err
		}
	}
	return nil
}

// Metrics finalizes and returns the cluster metrics accumulated by the
// session API (Open / DrainContext). It may be called mid-drive; before
// any Open it returns zero-valued metrics.
func (c *Cluster) Metrics() Metrics { return c.finishMetrics() }
