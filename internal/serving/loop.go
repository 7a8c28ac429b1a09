package serving

import (
	"context"
	"errors"
	"sync"
	"time"

	"diffkv/internal/gpusim"
	"diffkv/internal/stats"
	"diffkv/internal/telemetry"
	"diffkv/internal/workload"
)

// ErrLoopShutdown is returned by Loop.Open once Shutdown has begun: the
// loop finishes in-flight sessions but accepts no new work.
var ErrLoopShutdown = errors.New("serving: loop shutting down")

// Driver is the steppable surface Loop drives: a single Engine or a
// cluster.Cluster (which embeds N engines behind a router). A Driver is
// single-goroutine like the engines themselves — the Loop serializes all
// access behind its own mutex, which is what makes Open safe to call from
// many goroutines at once.
type Driver interface {
	// Open submits a request and returns its session handle (engine
	// semantics; cluster drivers may return ErrAllSaturated-style
	// admission errors).
	Open(ctx context.Context, r workload.Request) (*Session, error)
	// Step runs one scheduler iteration and returns the requests it
	// completed; with no due work it is a cheap no-op returning (nil, nil).
	Step() ([]Completion, error)
	// NextTime reports the simulated time of the next step, false when
	// the driver has no work.
	NextTime() (gpusim.Micros, bool)
	// HasWork reports whether any requests are queued, running or swapped.
	HasWork() bool
	// ReapSessions frees the state of context-cancelled sessions so an
	// idle driver still observes cancellations.
	ReapSessions()
	// Stats snapshots driver-level serving counters for observability
	// (the gateway's /metrics endpoint).
	Stats() DriverStats
}

// DriverStats is a driver-level counter snapshot: the union of the gauges
// a single engine and a cluster can report, with fields the driver does
// not track left zero.
type DriverStats struct {
	// Instances is 1 for an engine, N for a cluster.
	Instances int
	// QueueDepth / Running / Swapped / OpenSessions describe in-flight
	// load summed over instances.
	QueueDepth   int
	Running      int
	Swapped      int
	OpenSessions int
	// Completed / Cancelled / Rejected / Preemptions are lifetime
	// counters (Rejected is cluster admission shedding; 0 for engines).
	Completed   int
	Cancelled   int
	Rejected    int
	Preemptions int
	// Fault-recovery lifetime counters (all zero without fault
	// injection). Failed counts requests terminally failed after
	// exhausting their crash re-dispatch budget; Redispatches counts
	// orphan re-dispatches to surviving instances; Crashes / Restarts
	// count instance fault transitions; LostKVBytes is the GPU KV
	// footprint destroyed by crashes; SwapRecovered counts sequences the
	// host tier carried through a crash; BrownoutAdmits counts
	// admissions forced to the all-low tier under queue pressure.
	Failed         int
	Redispatches   int
	Crashes        int
	Restarts       int
	LostKVBytes    int64
	SwapRecovered  int
	BrownoutAdmits int
	// InstancesUp counts instances currently not down (equals Instances
	// without fault injection).
	InstancesUp int
	// ClockUs is the latest simulated clock across instances.
	ClockUs float64
	// ThroughputTokensPerSec / GoodputTokensPerSec are simulated-time
	// token rates (goodput counts completed requests' tokens only).
	ThroughputTokensPerSec float64
	GoodputTokensPerSec    float64
	// KV page-pool occupancy summed over manager-mode instances.
	FreeKVPages int
	UsedKVPages int
	// Host-tier offload traffic summed over instances.
	SwapOutBytes   int64
	SwapInBytes    int64
	HostPrefixHits int
	// Disaggregated prefill/decode handoff traffic (all zero without
	// disaggregation): KVTransfers counts prefill→decode shipments,
	// KVBytesShipped their compressed payload bytes on the wire, and
	// KVShipLinks the per-(from,to) instance-pair breakdown.
	KVTransfers    int
	KVBytesShipped int64
	KVShipLinks    []KVLink
	// PerInstance breaks the load gauges down per serving instance (one
	// entry for an engine, N for a cluster) so a scrape can tell a hot
	// instance from a balanced fleet.
	PerInstance []InstanceStats
}

// InstanceStats is one serving instance's share of the load gauges.
type InstanceStats struct {
	// Inst is the 1-based instance tag (matching trace.Event.Inst in
	// cluster runs).
	Inst        int
	QueueDepth  int
	Running     int
	Swapped     int
	FreeKVPages int
	UsedKVPages int
	// Health is the instance's fault-injection state: "healthy",
	// "degraded" (transient slowdown) or "down" (crashed, awaiting
	// restart). Always "healthy" without fault injection.
	Health string
	// Redispatched counts crash orphans this instance accepted.
	Redispatched int
	// ResidentTokens / SwappedTokens are the GPU-resident and host-tier
	// KV token footprints; TokenCapacity is the whole-pool token budget
	// (Engine.TotalTokenCapacity). Together they feed the saturation
	// analyzer: demand = resident + swapped + queued×avg-prompt against
	// capacity.
	ResidentTokens int
	SwappedTokens  int
	TokenCapacity  float64
	// Per-instance lifetime counters for {inst}-labelled exposition.
	Preemptions  int
	SwapOutBytes int64
	SwapInBytes  int64
	// Role is the instance's disaggregation pool ("prefill", "decode" or
	// "mixed"); empty without disaggregation.
	Role string
}

// KVLink is one directed instance pair's lifetime disaggregated KV
// shipment traffic (instance tags are 1-based, matching trace events).
type KVLink struct {
	From, To  int
	Bytes     int64
	Transfers int
}

// LoopConfig parameterizes a Loop.
type LoopConfig struct {
	// TimeScale maps simulated time onto wall time: a step scheduled at
	// simulated time T does not execute before the loop's start plus
	// T*TimeScale wall time. 1.0 paces the simulation to real time, 0.1
	// runs it 10x faster than real time, and 0 (the default) runs flat
	// out — steps execute as fast as the host allows.
	TimeScale float64
	// Poll is the idle wakeup interval: how often an idle (or pacing)
	// loop re-checks for new work and reaps context-cancelled sessions.
	// Opens wake the loop immediately; Poll only bounds the latency of
	// external context cancellations. Default 2ms.
	Poll time.Duration
	// Telemetry, when set, receives opens, completion latencies and
	// sim-time cadence samples from the loop. Attach a Center to exactly
	// one layer — the Loop here, or cluster.Config.Telemetry for batch
	// runs driven without a Loop — or completions are double-counted.
	Telemetry *telemetry.Center
}

// LatencyStats summarizes a latency distribution in seconds. Mean is
// exact over the loop's lifetime; the quantiles are computed over the
// most recent loopLatencyWindow completions, so an always-on server's
// memory and scrape cost stay bounded.
type LatencyStats = stats.LatencySummary

// loopLatencyWindow bounds the per-distribution sample retention.
const loopLatencyWindow = 16384

// latencyAcc accumulates one latency distribution: an exact running
// mean plus a ring of recent samples for quantiles.
type latencyAcc struct {
	ring  []float64
	next  int
	count int
	sum   float64
}

func (a *latencyAcc) add(v float64) {
	a.sum += v
	a.count++
	if len(a.ring) < loopLatencyWindow {
		a.ring = append(a.ring, v)
		return
	}
	a.ring[a.next] = v
	a.next = (a.next + 1) % loopLatencyWindow
}

func (a *latencyAcc) stats() LatencyStats {
	s := stats.SummarizeLatency(a.ring)
	if a.count > 0 {
		s.Mean = a.sum / float64(a.count) // lifetime-exact, not windowed
	}
	return s
}

// LoopMetrics snapshots a running loop for observability: loop-level
// request latency distributions (accumulated from the completions the
// loop observed) plus the driver's own counters.
type LoopMetrics struct {
	// Opened / Completed count sessions through this loop. Steps counts
	// executed scheduler iterations.
	Opened    int
	Completed int
	Steps     int
	// UptimeSeconds is wall time since the loop started; SimSeconds the
	// simulated clock it has reached.
	UptimeSeconds float64
	SimSeconds    float64
	// Draining reports whether Shutdown has begun; Stopped whether the
	// loop goroutine has terminated (drain finished, forced stop, or a
	// driver error — see Err).
	Draining bool
	Stopped  bool
	// TTFT / TPOT / E2E are per-completion latency distributions in
	// seconds (TPOT per output token after the first).
	TTFT, TPOT, E2E LatencyStats
	// Phases breaks completed requests' end-to-end latency down by
	// lifecycle phase (Completion.Phases aggregated across completions).
	Phases PhaseLatencyStats
	// Driver is the wrapped driver's counter snapshot.
	Driver DriverStats
}

// PhaseLatencyStats aggregates the per-completion phase breakdowns into
// one latency distribution per lifecycle phase, in seconds. Queue /
// Prefill / Decode cover every completion; Stall / Swapped cover only
// completions that were preempted into those phases (the counts say how
// many), so their quantiles are not diluted by the zero time of
// never-preempted requests.
type PhaseLatencyStats struct {
	Queue, Prefill, Decode LatencyStats
	Stall, Swapped         LatencyStats
	StallCount             int
	SwappedCount           int
}

// Loop is the always-on driver of the serving API: it owns a Driver (an
// Engine or a cluster) and its Step cadence in a background goroutine,
// so callers interact only through goroutine-safe entry points — Open to
// submit, Metrics to observe, Shutdown to drain and stop. Steps are
// paced against simulated time when TimeScale is set; otherwise the loop
// runs the simulation flat out and sleeps only when idle.
//
// Token callbacks attached via Open run on the loop goroutine while the
// loop lock is held: they must not call back into the Loop (hand updates
// to another goroutine instead, e.g. over a buffered channel).
type Loop struct {
	d   Driver
	cfg LoopConfig

	mu       sync.Mutex
	draining bool // Shutdown called: reject Opens, drain, then stop
	stopped  bool // terminal: loop goroutine exits at next wakeup
	failed   error

	opened    int
	completed int
	steps     int
	ttft      latencyAcc
	tpot      latencyAcc
	e2e       latencyAcc
	phQueue   latencyAcc
	phPrefill latencyAcc
	phDecode  latencyAcc
	phStall   latencyAcc
	phSwapped latencyAcc

	start time.Time
	// paceOrigin anchors TimeScale pacing: simulated time 0 maps to this
	// wall instant. It starts at start and slides forward whenever the
	// loop falls behind its own schedule (most importantly across idle
	// gaps — an idle hour must not bank an hour of pacing credit that
	// would make the next session stream flat out).
	paceOrigin time.Time
	wake       chan struct{} // Open/Shutdown nudge an idle or pacing loop
	done       chan struct{} // closed when the loop goroutine exits
}

// NewLoop starts a loop over the driver. The background goroutine runs
// until Shutdown (or a driver error, observable via Err / Shutdown's
// return); the caller must eventually call Shutdown to stop it.
func NewLoop(d Driver, cfg LoopConfig) *Loop {
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Millisecond
	}
	now := time.Now() //diffkv:allow wallclock -- Loop pacing origin: anchors TimeScale pacing and uptime to the host clock by design
	l := &Loop{
		d:          d,
		cfg:        cfg,
		start:      now,
		paceOrigin: now,
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	//diffkv:allow goroutine -- the Loop IS the background driver goroutine; determinism is pinned by TestLoopMatchesStepDriven
	go l.run()
	return l
}

// Open submits a request and returns its session handle. It is safe to
// call from any goroutine: the loop lock serializes it against the step
// cadence. onToken, when non-nil, is attached before the loop can take
// another step, so no token update is ever missed. Returns
// ErrLoopShutdown once Shutdown has begun; driver admission errors
// (e.g. cluster saturation) pass through unwrapped.
func (l *Loop) Open(ctx context.Context, r workload.Request, onToken func(TokenUpdate)) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining || l.stopped {
		return nil, ErrLoopShutdown
	}
	s, err := l.d.Open(ctx, r)
	if err != nil {
		return nil, err
	}
	if onToken != nil {
		s.OnToken(onToken)
	}
	if l.cfg.Telemetry != nil {
		l.cfg.Telemetry.RecordOpen(s.Request().PromptLen)
	}
	l.opened++
	l.wakeup()
	return s, nil
}

// Shutdown is the one graceful-drain entry point: new Opens are rejected
// immediately, in-flight sessions run to completion, and the loop
// goroutine exits. If ctx expires first, the loop stops between steps
// with unfinished work still queued and ctx's error is returned;
// otherwise Shutdown returns the loop's terminal error (nil on a clean
// drain). Shutdown is idempotent and safe from any goroutine.
func (l *Loop) Shutdown(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	l.mu.Lock()
	l.draining = true
	l.mu.Unlock()
	l.wakeup()
	select {
	case <-l.done:
	case <-ctx.Done():
		l.mu.Lock()
		l.stopped = true
		l.mu.Unlock()
		l.wakeup()
		<-l.done
		return ctx.Err()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Done returns a channel closed when the loop goroutine has exited.
func (l *Loop) Done() <-chan struct{} { return l.done }

// Err returns the loop's terminal error: a driver step failure that
// stopped the loop, or nil.
func (l *Loop) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Metrics snapshots the loop and its driver. Safe from any goroutine and
// cheap enough to serve a metrics scrape.
func (l *Loop) Metrics() LoopMetrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := LoopMetrics{
		Opened:    l.opened,
		Completed: l.completed,
		Steps:     l.steps,
		//diffkv:allow wallclock -- uptime is an operator-facing wall-clock metric, never fed back into the sim
		UptimeSeconds: time.Since(l.start).Seconds(),
		Draining:      l.draining,
		Stopped:       l.stopped,
		TTFT:          l.ttft.stats(),
		TPOT:          l.tpot.stats(),
		E2E:           l.e2e.stats(),
		Phases: PhaseLatencyStats{
			Queue:        l.phQueue.stats(),
			Prefill:      l.phPrefill.stats(),
			Decode:       l.phDecode.stats(),
			Stall:        l.phStall.stats(),
			Swapped:      l.phSwapped.stats(),
			StallCount:   l.phStall.count,
			SwappedCount: l.phSwapped.count,
		},
		Driver: l.d.Stats(),
	}
	m.SimSeconds = m.Driver.ClockUs / 1e6
	return m
}

// run is the loop goroutine: wait for work, pace the next step against
// simulated time, step, record completions. Step reaps cancelled
// sessions itself; the loop reaps explicitly only on the two paths that
// execute no step (idle, pacing), so context cancellations are still
// observed promptly there.
func (l *Loop) run() {
	defer close(l.done)
	for {
		l.mu.Lock()
		if l.stopped {
			l.mu.Unlock()
			return
		}
		t, ok := l.d.NextTime()
		if !ok {
			l.d.ReapSessions() // ctx cancellations on an idle driver
			if l.draining {
				l.stopped = true // drain complete: the loop has terminated
				l.mu.Unlock()
				return
			}
			l.mu.Unlock()
			l.sleep(l.cfg.Poll)
			continue
		}
		if wait := l.paceWait(t); wait > 0 {
			l.d.ReapSessions() // ctx cancellations while pacing holds steps
			l.mu.Unlock()
			// sleep in Poll slices: a new Open can pull NextTime earlier
			l.sleep(min(wait, l.cfg.Poll))
			continue
		}
		comps, err := l.d.Step()
		l.steps++
		l.record(comps)
		// telemetry sampling rides the step cadence at sim time
		FeedTelemetry(l.cfg.Telemetry, l.d, comps, float64(t))
		if err != nil {
			l.failed = err
			l.stopped = true
			l.mu.Unlock()
			return
		}
		l.mu.Unlock()
	}
}

// paceWait returns how long the loop must still wait before executing a
// step scheduled at simulated time t (0 when unpaced or already due).
// When the loop has fallen behind its schedule — scheduling jitter, or
// an idle stretch whose wall time the simulated clock never consumed —
// the pacing origin slides forward to the deficit instead of banking
// it, so the next paced step is due now and later steps keep their
// simulated spacing. An idle hour therefore does not buy an hour of
// flat-out streaming.
func (l *Loop) paceWait(t gpusim.Micros) time.Duration {
	if l.cfg.TimeScale <= 0 {
		return 0
	}
	target := l.paceOrigin.Add(time.Duration(float64(t) * l.cfg.TimeScale * float64(time.Microsecond)))
	wait := time.Until(target) //diffkv:allow wallclock -- TimeScale pacing compares the sim schedule against real time by definition
	if wait < 0 {
		l.paceOrigin = l.paceOrigin.Add(-wait)
		return 0
	}
	return wait
}

// record accumulates completion latencies (called with the lock held).
func (l *Loop) record(comps []Completion) {
	for _, cp := range comps {
		l.completed++
		ttft, tpot, e2e := cp.LatencySec()
		l.ttft.add(ttft)
		if cp.Req.GenLen > 0 {
			l.tpot.add(tpot)
		}
		l.e2e.add(e2e)
		l.phQueue.add(cp.Phases.QueueUs / 1e6)
		l.phPrefill.add(cp.Phases.PrefillUs / 1e6)
		l.phDecode.add(cp.Phases.DecodeUs / 1e6)
		// preemption phases only for requests that hit them, so the
		// distributions are not diluted by zeros
		if cp.Phases.StallUs > 0 {
			l.phStall.add(cp.Phases.StallUs / 1e6)
		}
		if cp.Phases.SwappedUs > 0 {
			l.phSwapped.add(cp.Phases.SwappedUs / 1e6)
		}
	}
}

// sleep blocks for d or until the next wakeup, whichever is first.
func (l *Loop) sleep(d time.Duration) {
	t := time.NewTimer(d) //diffkv:allow wallclock -- idle/pacing sleep between steps; sim state never observes the timer
	defer t.Stop()
	select {
	case <-l.wake:
	case <-t.C:
	}
}

// wakeup nudges a sleeping loop (non-blocking; coalesces).
func (l *Loop) wakeup() {
	select {
	case l.wake <- struct{}{}: //diffkv:allow goroutine -- wake nudge to the Loop's own driver goroutine, not step-path work hand-off
	default:
	}
}

// Stats implements Driver for Engine: a single-instance counter snapshot.
func (e *Engine) Stats() DriverStats {
	r := e.Result()
	ds := DriverStats{
		Instances:              1,
		QueueDepth:             len(e.pending),
		Running:                len(e.running),
		Swapped:                len(e.swappedQ),
		OpenSessions:           e.OpenSessions(),
		Completed:              r.Completed,
		Cancelled:              e.cancelledN,
		Preemptions:            r.Preemptions,
		ClockUs:                float64(e.clock),
		ThroughputTokensPerSec: r.Throughput,
		GoodputTokensPerSec:    r.GoodputTokensPerSec,
		SwapOutBytes:           r.Offload.SwapOutBytes,
		SwapInBytes:            r.Offload.SwapInBytes,
		HostPrefixHits:         r.Offload.PrefixHits,
		LostKVBytes:            e.lostKVBytes,
		BrownoutAdmits:         e.brownoutN,
		InstancesUp:            1,
	}
	ds.FreeKVPages, ds.UsedKVPages = e.kv.pages()
	ds.PerInstance = []InstanceStats{{
		Inst:           1,
		QueueDepth:     ds.QueueDepth,
		Running:        ds.Running,
		Swapped:        ds.Swapped,
		FreeKVPages:    ds.FreeKVPages,
		UsedKVPages:    ds.UsedKVPages,
		Health:         "healthy",
		ResidentTokens: e.ResidentTokens(),
		SwappedTokens:  e.SwappedTokens(),
		TokenCapacity:  e.TotalTokenCapacity(),
		Preemptions:    ds.Preemptions,
		SwapOutBytes:   ds.SwapOutBytes,
		SwapInBytes:    ds.SwapInBytes,
	}}
	return ds
}
