package httpapi

import (
	"context"
	"errors"
	"sync"
	"time"

	"diffkv/internal/cluster"
	"diffkv/internal/gpusim"
	"diffkv/internal/serving"
	"diffkv/internal/workload"
)

// ErrLoopShutdown is returned by Loop.Open once Shutdown has begun: the
// loop finishes in-flight sessions but accepts no new work.
var ErrLoopShutdown = errors.New("httpapi: loop shutting down")

// loopPoll is the idle wakeup interval: how often an idle (or pacing) loop
// re-checks for new work and reaps context-cancelled sessions. Opens wake
// the loop immediately; loopPoll only bounds the latency of external
// context cancellations.
const loopPoll = 2 * time.Millisecond

// LoopConfig parameterizes a Loop.
type LoopConfig struct {
	// TimeScale maps simulated time onto wall time: a step scheduled at
	// simulated time T does not execute before the loop's start plus
	// T*TimeScale wall time. 1.0 paces the simulation to real time, 0.1
	// runs it 10x faster than real time, and 0 (the default) runs flat
	// out — steps execute as fast as the host allows.
	TimeScale float64
}

// LoopMetrics snapshots a running loop for observability: the loop's
// own counters plus the cluster's. Latency distributions live in the
// telemetry center the cluster feeds, not here.
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
	// step error — see Err).
	Draining bool
	Stopped  bool
	// Driver is the cluster's counter snapshot (Cluster.Stats).
	Driver serving.DriverStats
}

// Loop is the always-on driver of the serving API: it owns a cluster
// (one instance or many) and its Step cadence in a background
// goroutine, so callers interact only through goroutine-safe
// entry points — Open to submit, Metrics to observe, Shutdown to drain
// and stop. Steps are paced against simulated time when TimeScale is set;
// otherwise the loop runs the simulation flat out and sleeps only when
// idle.
//
// Token callbacks attached via Open run on the loop goroutine while the
// loop lock is held: they must not call back into the Loop (hand updates
// to another goroutine instead, e.g. over a buffered channel).
type Loop struct {
	c   *cluster.Cluster
	cfg LoopConfig

	mu       sync.Mutex
	draining bool // Shutdown called: reject Opens, drain, then stop
	stopped  bool // terminal: loop goroutine exits at next wakeup
	failed   error

	opened    int
	completed int
	steps     int

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

// NewLoop starts a loop over the cluster, which the loop then owns: a
// cluster is single-goroutine, and the loop's lock is what makes Open
// safe from many goroutines. The background goroutine runs until
// Shutdown (or a step error, observable via Err / Shutdown's return);
// the caller must eventually call Shutdown to stop it.
func NewLoop(c *cluster.Cluster, cfg LoopConfig) *Loop {
	now := time.Now()
	l := &Loop{
		c:          c,
		cfg:        cfg,
		start:      now,
		paceOrigin: now,
		wake:       make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	go l.run()
	return l
}

// Open submits a request and returns its session handle. It is safe to
// call from any goroutine: the loop lock serializes it against the step
// cadence. onToken, when non-nil, is attached before the loop can take
// another step, so no token update is ever missed. Returns
// ErrLoopShutdown once Shutdown has begun; cluster admission errors
// (ErrAllSaturated) pass through unwrapped.
func (l *Loop) Open(ctx context.Context, r workload.Request, onToken func(serving.TokenUpdate)) (*serving.Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining || l.stopped {
		return nil, ErrLoopShutdown
	}
	s, err := l.c.Open(ctx, r)
	if err != nil {
		return nil, err
	}
	if onToken != nil {
		s.OnToken(onToken)
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

// Err returns the loop's terminal error: a cluster step failure that
// stopped the loop, or nil.
func (l *Loop) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Metrics snapshots the loop and its cluster. Safe from any goroutine and
// cheap enough to serve a metrics scrape.
func (l *Loop) Metrics() LoopMetrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := LoopMetrics{
		Opened:        l.opened,
		Completed:     l.completed,
		Steps:         l.steps,
		UptimeSeconds: time.Since(l.start).Seconds(),
		Draining:      l.draining,
		Stopped:       l.stopped,
		Driver:        l.c.Stats(),
	}
	m.SimSeconds = m.Driver.ClockUs / 1e6
	return m
}

// run is the loop goroutine: wait for work, pace the next step against
// simulated time, step, count completions. Step reaps cancelled
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
		t, ok := l.c.NextTime()
		if !ok {
			l.c.ReapSessions() // ctx cancellations on an idle cluster
			if l.draining {
				l.stopped = true // drain complete: the loop has terminated
				l.mu.Unlock()
				return
			}
			l.mu.Unlock()
			l.sleep(loopPoll)
			continue
		}
		if wait := l.paceWait(t); wait > 0 {
			l.c.ReapSessions() // ctx cancellations while pacing holds steps
			l.mu.Unlock()
			// sleep in loopPoll slices: a new Open can pull NextTime earlier
			l.sleep(min(wait, loopPoll))
			continue
		}
		comps, err := l.c.Step()
		l.steps++
		l.completed += len(comps)
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
	wait := time.Until(target)
	if wait < 0 {
		l.paceOrigin = l.paceOrigin.Add(-wait)
		return 0
	}
	return wait
}

// sleep blocks for d or until the next wakeup, whichever is first.
func (l *Loop) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-l.wake:
	case <-t.C:
	}
}

// wakeup nudges a sleeping loop (non-blocking; coalesces).
func (l *Loop) wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}
