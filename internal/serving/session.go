package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// ErrCancelled is the terminal error of a session cancelled before
// completion (explicitly or via its context).
var ErrCancelled = errors.New("serving: session cancelled")

// ErrFailed is the terminal error of a session whose request could not
// be completed after instance crashes: its re-dispatch retry budget ran
// out (or no instance was left to route to).
var ErrFailed = errors.New("serving: request failed after instance crashes")

// TokenUpdate is one token-progress notification delivered to a
// session's OnToken callback from the driving goroutine.
type TokenUpdate struct {
	// Seq is the request ID.
	Seq int
	// Generated is the number of output tokens produced so far.
	Generated int
	// TimeUs is the simulated clock at the step that produced the tokens.
	TimeUs float64
	// First marks the prompt phase finishing (the TTFT point); Generated
	// is 0 at that update.
	First bool
}

// Session is a per-request handle over the steppable engine: Open
// submits the request and returns the handle, token progress streams
// through the OnToken callback while the engine is driven (Step /
// DrainContext), and cancellation — explicit Cancel or the Open context
// expiring — frees the request's KV pages and host-tier state instead of
// finishing the generation. A Session is owned by the engine's driving
// goroutine, like the engine itself; Done is the only member safe to use
// from other goroutines.
type Session struct {
	// eng is the engine whose record carries the session; nil while the
	// request is in transit between engines (on an Orphan or a KVExport)
	eng *Engine
	ctx context.Context
	req workload.Request

	onToken   func(TokenUpdate)
	generated int
	firstSent bool // First update delivered (dedups recompute retries)
	finished  bool
	cancelReq bool // Cancel() called mid-step or in transit; honored at the next reap
	comp      Completion
	err       error
	done      chan struct{}
}

// ID returns the request ID the session serves.
func (s *Session) ID() int { return s.req.ID }

// Request returns the submitted request (with any auto-assigned ID).
func (s *Session) Request() workload.Request { return s.req }

// OnToken sets the token-progress callback and returns the session for
// chaining. Set it before driving the engine; callbacks run synchronously
// on the driving goroutine.
func (s *Session) OnToken(fn func(TokenUpdate)) *Session {
	s.onToken = fn
	return s
}

// Generated returns the output tokens produced so far.
func (s *Session) Generated() int { return s.generated }

// Done returns a channel closed when the session completes or is
// cancelled.
func (s *Session) Done() <-chan struct{} { return s.done }

// Finished reports whether the session has completed or been cancelled.
//
//diffkv:allow deadcode -- tests see session liveness through it: every session finishes or is cancelled, also across instance crashes and re-routes
func (s *Session) Finished() bool { return s.finished }

// Completion returns the completion record once the session finished
// successfully; the error is ErrCancelled for cancelled sessions and nil
// while the session is still in flight (check Finished).
func (s *Session) Completion() (Completion, error) {
	return s.comp, s.err
}

// Cancel terminates the session: the request leaves the queue / running
// batch / swapped queue and its KV pages and host-tier bytes are freed
// immediately. Two cases defer it to the next reap instead: a call from
// inside a token callback (the engine is mid-iteration, so the reap at
// the end of the current step honors it) and a call while the request is
// in transit between engines (the engine it lands on honors it before
// admitting anything). Cancelling a finished session is a no-op.
func (s *Session) Cancel() {
	if s.finished || s.cancelReq {
		return
	}
	e := s.eng
	if e != nil && !e.inStep {
		e.cancel(e.live[s.req.ID])
		return
	}
	s.cancelReq = true
	if e != nil {
		e.deferredCancel = true
	}
}

// Abort terminally fails the session with err (ErrFailed when nil).
// The recovery layer calls it for crash orphans that exhaust their
// retry budget — the request is already off every engine by then
// (Crash retired its record), so only the session-side terminal state
// is set.
func (s *Session) Abort(err error) {
	if err == nil {
		err = ErrFailed
	}
	s.finish(Completion{Req: s.req}, err)
}

// finish marks the session terminal and signals Done.
func (s *Session) finish(cp Completion, err error) {
	if s.finished {
		return
	}
	s.finished = true
	s.comp = cp
	s.err = err
	close(s.done)
}

// Open submits a request and returns its session handle. The context
// governs the request's lifetime: once it is cancelled or its deadline
// passes, the next engine step reaps the session and frees its KV state.
// A zero request ID is auto-assigned from a private range so hand-built
// requests need no ID bookkeeping. The engine must still be driven (Step
// or DrainContext) for the session to make progress — Open itself
// performs no work, matching a real online server's accept path.
func (e *Engine) Open(ctx context.Context, r workload.Request) (*Session, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r.ID == 0 {
		e.autoID++
		r.ID = sessionAutoIDBase + e.autoID
	}
	if e.live[r.ID] != nil {
		return nil, fmt.Errorf("serving: session for request %d already open", r.ID)
	}
	if r.GenLen <= 0 {
		return nil, fmt.Errorf("serving: request %d has no generation budget", r.ID)
	}
	if r.ArrivalUs < float64(e.clock) {
		// an online request cannot arrive in the simulated past
		r.ArrivalUs = float64(e.clock)
	}
	s := &Session{ctx: ctx, req: r, done: make(chan struct{})}
	e.submit(r, s)
	return s, nil
}

// sessionAutoIDBase keeps auto-assigned session request IDs clear of
// workload-generator IDs (which count up from 1).
const sessionAutoIDBase = 1 << 30

// OpenSessions returns the number of unfinished sessions.
func (e *Engine) OpenSessions() int { return e.sessN }

// CancelledSessions returns how many sessions were cancelled over the
// engine's lifetime.
func (e *Engine) CancelledSessions() int { return e.cancelledN }

// cancel takes a cancelled session's record off whichever queue holds it
// and retires it — releasing KV pages (running) or pinned host bytes
// (swapped), so the capacity is immediately available to other requests,
// and dropping a pending adoption unadopted.
func (e *Engine) cancel(st *seqState) {
	q := &e.pending
	switch st.at {
	case atRunning:
		q = &e.running
	case atSwapped:
		q = &e.swappedQ
	}
	i := slices.Index(*q, st)
	*q = slices.Delete(*q, i, i+1)
	_ = e.retire(st) // a failed page release cannot un-cancel the session
	e.cancelledN++
	e.emit(trace.Event{Kind: trace.KindCancel, TimeUs: float64(e.clock), Seq: st.req.ID})
	st.Sess.finish(Completion{Req: st.Sess.req}, ErrCancelled)
}

// ReapSessions processes context-cancelled and deferred-cancelled
// sessions, freeing their KV state. Step calls it automatically; external
// drivers (the cluster event loop) call it to observe cancellations on
// engines that have gone idle and would otherwise never step again.
func (e *Engine) ReapSessions() {
	e.deferredCancel = false
	if e.sessN == 0 {
		return
	}
	var ids []int
	for id, st := range e.live {
		if st.Sess != nil && (st.Sess.cancelReq || st.Sess.ctx.Err() != nil) {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids) // deterministic cancel order regardless of map walk
	for _, id := range ids {
		e.cancel(e.live[id])
	}
}

// notifyFirstToken streams a First (TTFT) update to the session of a
// prompt that finished this step. A recompute-preempted or re-dispatched
// request re-runs its prompt, so the sent flag lives on the session:
// exactly one First per session, like generation updates stay monotonic
// across retries. Called with the post-step clock.
func (e *Engine) notifyFirstToken(st *seqState) {
	s := st.Sess
	if s == nil || s.finished || s.firstSent {
		return
	}
	s.firstSent = true
	if s.onToken != nil {
		s.onToken(TokenUpdate{Seq: st.req.ID, TimeUs: float64(e.clock), First: true})
	}
}

// notifyGenProgress streams one token update per sequence that produced a
// token this step (preempted and swapped victims did not). Called with
// the post-step clock.
func (e *Engine) notifyGenProgress(genSeqs []*seqState) {
	if e.sessN == 0 {
		return
	}
	now := float64(e.clock)
	for _, st := range genSeqs {
		s := st.Sess
		if s == nil || s.finished || st.generated <= s.generated {
			continue
		}
		s.generated = st.generated
		if s.onToken != nil {
			s.onToken(TokenUpdate{Seq: st.req.ID, Generated: st.generated, TimeUs: now})
		}
	}
}

// DrainContext steps the engine until all submitted work completes, the
// context is done, or the step bound is hit. On context expiry it stops
// between steps and returns the context's error with unfinished work
// still queued.
func (e *Engine) DrainContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for e.steps < maxTotalSteps {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.ReapSessions() // cancellations may empty the remaining work
		if !e.HasWork() {
			return nil
		}
		if _, err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}
