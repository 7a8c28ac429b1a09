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

// A cluster is drivable by a serving.Loop exactly like a single engine.
var _ serving.Driver = (*Cluster)(nil)

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
	// PolicyLeastLoaded or PolicyPrefixAffinity; default round-robin).
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
	// single-threaded event loop (Run / Step) and fed every dispatch
	// and completion — this is what makes a seeded batch run's alert
	// timeline bit-identical across runs. Attach a Center to exactly one
	// layer: here for batch runs, or serving.LoopConfig.Telemetry when a
	// Loop drives the cluster (attaching to both double-counts
	// completions).
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

	// disaggregation coordinator state (disagg.go); nil without
	// Config.Disagg
	dg *disaggState

	// fault-injection state (faulttol.go); inj nil without a fault plan
	inj           *faults.Injector
	health        []Health
	redispatchQ   []redispatch
	perInstRedisp []int
	failedN       int
	redispatchN   int
	crashes       int
	restarts      int
	swapRecovered int
	lostKV        int64
}

// clusterAutoIDBase keeps cluster-assigned session request IDs clear of
// workload-generator IDs (counting up from 1) and of the per-engine
// auto-ID range (starting at 1<<30): engines assign IDs independently,
// so a two-instance cluster would hand the same engine-assigned ID to
// two different clients — the cluster assigns before routing instead.
// 3<<29 (= 1<<30 + 1<<29) still fits a 32-bit int.
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
			return nil, fmt.Errorf("cluster: instance %d: %w", i, err)
		}
		c.engines = append(c.engines, eng)
	}
	return c, nil
}

// Policy returns the active routing policy's name.
func (c *Cluster) Policy() string { return c.policy.Name() }

// Engines exposes the underlying serving engines (read-mostly: for
// inspection and tests).
func (c *Cluster) Engines() []*serving.Engine { return c.engines }

func (c *Cluster) emit(ev trace.Event) {
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Emit(ev)
	}
}

// maxClusterSteps bounds the event loop like Engine.DrainContext bounds
// a single-engine run: an unservable request (e.g. a prompt that can never
// fit one instance's pages) recompute-preempts forever, and without a
// step bound the cluster would never return. Breaking leaves the request
// visible as Metrics.Stuck() > 0.
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
		c.acc.reject()
		c.emit(trace.Event{Kind: trace.KindReject, TimeUs: r.ArrivalUs, Seq: r.ID})
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
	if c.cfg.Telemetry != nil {
		c.cfg.Telemetry.RecordOpen(r.PromptLen)
	}
	c.observe(r, idx)
	c.acc.dispatch(idx, r)
	c.emit(trace.Event{Kind: trace.KindDispatch, TimeUs: r.ArrivalUs, Seq: r.ID, Inst: idx + 1})
}

// route snapshots the fleet, filters saturated instances and lets the
// policy pick. Reports false when every instance is saturated. Under
// disaggregation decode-pool instances never take fresh prompts (they
// only adopt shipped prefills), so they are filtered here regardless of
// the policy in use.
func (c *Cluster) route(r workload.Request) (int, bool) {
	snaps := make([]Snapshot, 0, len(c.engines))
	for i := range c.engines {
		if c.down(i) {
			continue // crashed: unroutable until restart
		}
		if c.dg != nil && c.dg.roles[i] == disagg.RoleDecode {
			continue // decode pool: adopts shipped prefills only
		}
		s := c.snapshot(i)
		if c.cfg.MaxQueueDepth > 0 && s.QueueDepth >= c.cfg.MaxQueueDepth {
			continue // saturated: unroutable
		}
		snaps = append(snaps, s)
	}
	if len(snaps) == 0 {
		return 0, false
	}
	return c.policy.Pick(r, snaps), true
}

// snapshot is the router's view of instance i (0-based) right now — the
// one place a Snapshot is built, for first dispatch, crash re-dispatch
// and decode-side placement alike.
func (c *Cluster) snapshot(i int) Snapshot {
	e := c.engines[i]
	return Snapshot{
		ID:             i,
		QueueDepth:     e.QueueDepth(),
		Running:        e.RunningCount(),
		ResidentTokens: e.ResidentTokens(),
		SwappedTokens:  e.SwappedTokens(),
		ClockUs:        float64(e.Clock()),
		Degraded:       c.InstanceHealth(i) == Degraded,
		Role:           c.Role(i),
	}
}

// observe lets learning policies record the dispatch decision.
func (c *Cluster) observe(r workload.Request, idx int) {
	if obs, ok := c.policy.(observer); ok {
		obs.Observe(r, idx, r.ArrivalUs)
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
		// assign fleet-unique IDs here: per-engine auto-assignment would
		// collide across instances
		c.autoID++
		r.ID = clusterAutoIDBase + c.autoID
	}
	// bring instance health up to date before routing: a crash due by now
	// must exclude its instance from this decision
	if c.inj != nil {
		t := r.ArrivalUs
		for _, e := range c.engines {
			if ct := float64(e.Clock()); ct > t {
				t = ct
			}
		}
		if err := c.advanceFaults(t); err != nil {
			return nil, err
		}
	}
	idx, ok := c.route(r)
	if !ok {
		// a shed request was offered load: it counts as submitted and
		// latches session mode, unlike an invalid request below
		c.sessionMode = true
		c.acc.m.Submitted++
		c.acc.reject()
		c.emit(trace.Event{Kind: trace.KindReject, TimeUs: r.ArrivalUs, Seq: r.ID})
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
		return nil, fmt.Errorf("cluster: instance %d: %w", idx, err)
	}
	c.sessionMode = true
	c.acc.m.Submitted++
	// the engine may have auto-assigned the request ID and clamped the
	// arrival time; observe and account the request as actually submitted
	// (under disaggregation that is the parent: the session handle follows
	// the KV across the handoff, the request completes once on its decode
	// instance)
	genLen := r.GenLen
	r = s.Request()
	if handoff {
		r.GenLen = genLen
		c.engines[idx].MarkHandoff(r.ID, genLen)
	}
	if c.cfg.Telemetry != nil {
		c.cfg.Telemetry.RecordOpen(r.PromptLen)
	}
	c.observe(r, idx)
	c.acc.dispatch(idx, r)
	c.emit(trace.Event{Kind: trace.KindDispatch, TimeUs: r.ArrivalUs, Seq: r.ID, Inst: idx + 1})
	return s, nil
}

// Step fires the earliest pending event (after reaping cancelled
// sessions) and returns the requests it completed — only an instance
// step completes any. With no pending event it is a cheap no-op returning
// (nil, nil) — the same contract as serving.Engine.Step, which is what
// lets a serving.Loop drive a cluster and a single engine
// interchangeably. One call is one event, so interleaved Open calls
// between steps model online arrivals.
func (c *Cluster) Step() ([]serving.Completion, error) {
	c.ReapSessions()
	return c.fire(c.next())
}

// Clock returns the latest simulated clock across instances.
func (c *Cluster) Clock() gpusim.Micros {
	var best gpusim.Micros
	for _, e := range c.engines {
		if t := e.Clock(); t > best {
			best = t
		}
	}
	return best
}

// ReapSessions frees the state of context-cancelled sessions on every
// instance — cancellations free capacity and may idle an engine.
func (c *Cluster) ReapSessions() {
	if !c.sessionMode {
		return // no Open yet, so no session to reap
	}
	for _, e := range c.engines {
		e.ReapSessions()
	}
}

// HasWork reports whether any instance has queued, running or swapped
// requests, a crash orphan awaits re-dispatch, or a KV transfer is on
// the wire.
func (c *Cluster) HasWork() bool {
	if len(c.redispatchQ) > 0 {
		return true
	}
	if c.dg != nil && c.dg.xq.Len() > 0 {
		return true
	}
	return c.engineWork()
}

// NextTime returns the simulated time of the earliest pending event and
// false when the cluster is idle.
func (c *Cluster) NextTime() (gpusim.Micros, bool) {
	ev := c.next()
	return gpusim.Micros(ev.atUs), ev.class != evNone
}

// Stats implements serving.Driver: fleet-wide counters summed over
// instances, plus the cluster's own admission-shed count.
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
		es := e.Stats()
		inst := es.PerInstance[0]
		inst.Inst = i + 1 // retag with the fleet-wide instance number
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
		ds.QueueDepth += es.QueueDepth
		ds.Running += es.Running
		ds.Swapped += es.Swapped
		ds.OpenSessions += es.OpenSessions
		ds.Completed += es.Completed
		ds.Cancelled += es.Cancelled
		ds.Preemptions += es.Preemptions
		ds.FreeKVPages += es.FreeKVPages
		ds.UsedKVPages += es.UsedKVPages
		ds.SwapOutBytes += es.SwapOutBytes
		ds.SwapInBytes += es.SwapInBytes
		ds.HostPrefixHits += es.HostPrefixHits
		ds.LostKVBytes += es.LostKVBytes
		ds.BrownoutAdmits += es.BrownoutAdmits
		if es.ClockUs > ds.ClockUs {
			ds.ClockUs = es.ClockUs
		}
		// per-instance rates are over each instance's own clock; recover
		// token counts and re-rate them over the cluster makespan
		genTok += es.ThroughputTokensPerSec * es.ClockUs / 1e6
		doneTok += es.GoodputTokensPerSec * es.ClockUs / 1e6
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
		for _, lb := range c.dg.ledger.Links() {
			ds.KVShipLinks = append(ds.KVShipLinks, serving.KVLink{
				From: lb.From, To: lb.To, Bytes: lb.Bytes, Transfers: lb.Transfers,
			})
		}
	}
	return ds
}

// finishMetrics finalizes the accumulator and overlays the cluster's
// fault-recovery counters.
func (c *Cluster) finishMetrics() Metrics {
	m := c.acc.finish(c.engines)
	m.Failed = c.failedN
	m.Redispatches = c.redispatchN
	m.Crashes = c.crashes
	m.Restarts = c.restarts
	m.SwapRecovered = c.swapRecovered
	m.LostKVBytes = c.lostKV
	for i, e := range c.engines {
		m.BrownoutAdmits += e.BrownoutAdmits()
		if c.perInstRedisp != nil {
			m.PerInstance[i].Redispatched = c.perInstRedisp[i]
		}
	}
	if c.dg != nil {
		m.Disagg = &DisaggMetrics{
			PrefillInstances: c.dg.cfg.PrefillInstances,
			DecodeInstances:  c.dg.cfg.DecodeInstances,
			Transfers:        c.dg.transfers,
			KVBytesShipped:   c.dg.bytes,
			XferSeconds:      c.dg.xferUs / 1e6,
			Links:            c.dg.ledger.Links(),
		}
		for i := range m.PerInstance {
			m.PerInstance[i].Role = string(c.dg.roles[i])
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
