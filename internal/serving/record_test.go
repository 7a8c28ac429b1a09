package serving

import (
	"context"
	"crypto/sha256"
	"testing"

	"diffkv/internal/offload"
)

// TestKeptTokenCountsMatchRecount drives every seam where a record joins,
// leaves or grows in the running or swapped queue — admission, generation,
// completion, recompute preemption, swap-out and swap-in, cancel of a
// running and of a swapped session, Crash with and without keepSwapped,
// and a disaggregated adoption — and requires ResidentTokens and
// SwappedTokens to equal a recount after every Step (stepUntil checks
// each) and after every call that moves records between Steps.
func TestKeptTokenCountsMatchRecount(t *testing.T) {
	t.Run("recompute", func(t *testing.T) {
		e := newEngine(t, oversubCfg(offload.PolicyRecompute, 0, 11))
		for _, r := range cotReqs(20, 11) {
			e.Submit(r)
		}
		drainCompletions(t, e)
		if e.Result().Preemptions == 0 {
			t.Fatal("run made no recompute preemption")
		}
	})

	t.Run("swap-cancel-crash-kept", func(t *testing.T) {
		e := newEngine(t, oversubCfg(offload.PolicySwap, 2<<30, 11))
		sessions := map[int]*Session{}
		for _, r := range cotReqs(20, 11) {
			s, err := e.Open(context.Background(), r)
			if err != nil {
				t.Fatal(err)
			}
			sessions[r.ID] = s
		}
		stepUntil(t, e, func() bool { return e.tiered.Metrics().SwapIns > 0 && len(e.swappedQ) >= 2 })
		if e.tiered.Metrics().SwapIns == 0 || len(e.swappedQ) < 2 {
			t.Fatal("run drained before a swap-in with two sequences swapped out")
		}
		sessions[e.swappedQ[0].req.ID].Cancel()
		checkTokenCounts(t, e)
		sessions[e.running[0].req.ID].Cancel()
		checkTokenCounts(t, e)
		if e.CancelledSessions() != 2 {
			t.Fatalf("cancelled %d sessions, want 2", e.CancelledSessions())
		}
		crashUs := float64(e.Clock()) + 1
		if _, err := e.Crash(crashUs, true); err != nil {
			t.Fatal(err)
		}
		checkTokenCounts(t, e)
		if e.ResidentTokens() != 0 || e.SwappedTokens() == 0 {
			t.Fatalf("keepSwapped crash left resident/swapped %d/%d, want 0/>0",
				e.ResidentTokens(), e.SwappedTokens())
		}
		e.Restart(crashUs + 1e6)
		drainCompletions(t, e)
		if n := liveRecords(t, e); n != 0 {
			t.Fatalf("%d request records left after drain", n)
		}
	})

	t.Run("crash-drops-swapped", func(t *testing.T) {
		e := newEngine(t, oversubCfg(offload.PolicySwap, 2<<30, 11))
		for _, r := range cotReqs(20, 11) {
			e.Submit(r)
		}
		stepUntil(t, e, func() bool { return len(e.swappedQ) > 0 })
		if len(e.swappedQ) == 0 || len(e.running) == 0 {
			t.Fatal("run has no swapped and running sequences to crash")
		}
		if _, err := e.Crash(float64(e.Clock())+1, false); err != nil {
			t.Fatal(err)
		}
		checkTokenCounts(t, e)
		if e.ResidentTokens()+e.SwappedTokens() != 0 {
			t.Fatalf("crash left resident/swapped %d/%d", e.ResidentTokens(), e.SwappedTokens())
		}
	})

	t.Run("adoption", func(t *testing.T) {
		// handoffPair drives both engines through drainCompletions
		handoffPair(t, sha256.New(), oversubCfg(offload.PolicyRecompute, 0, 23),
			oversubCfg(offload.PolicyRecompute, 0, 24), cotReqs(16, 23))
	})
}
