package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sort"
	"testing"

	"diffkv/internal/faults"
	"diffkv/internal/kvcache/kvcachetest"
	"diffkv/internal/serving"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// transit follows, from the trace alone, the requests that are on no
// engine: KV on the wire (from kv_ship until the decode side opens the
// record) and crash orphans waiting out their backoff (from the crash's
// retry event until re-dispatch or terminal failure). peak* record the
// most seen at once.
type transit struct {
	wire, backoff         map[int]bool
	peakWire, peakBackoff int
	noLive                []int // requests failed because every instance was down
	retries               map[int]int
}

func newTransit() *transit {
	return &transit{wire: map[int]bool{}, backoff: map[int]bool{}, retries: map[int]int{}}
}

func (tr *transit) Emit(ev trace.Event) {
	switch {
	case ev.Kind == trace.KindKVShip:
		tr.wire[ev.Seq] = true
	case ev.Kind == trace.KindOpen:
		delete(tr.wire, ev.Seq)
	case ev.Kind == trace.KindRetry:
		tr.backoff[ev.Seq] = true
		tr.retries[ev.Seq]++
	case ev.Kind == trace.KindDispatch && ev.Note == "redispatch":
		delete(tr.backoff, ev.Seq)
	case ev.Kind == trace.KindFail:
		delete(tr.backoff, ev.Seq)
		if ev.Note == "no live instances" {
			tr.noLive = append(tr.noLive, ev.Seq)
		}
	}
	tr.peakWire = max(tr.peakWire, len(tr.wire))
	tr.peakBackoff = max(tr.peakBackoff, len(tr.backoff))
}

// digestCluster folds a run's metrics and its completions, in completion
// order, into h. Disagg is printed dereferenced: %+v prints a pointer as
// an address.
func digestCluster(h hash.Hash, m Metrics, comps []serving.Completion) {
	for _, cp := range comps {
		fmt.Fprintf(h, "%d %d %v %v %d %v %+v\n", cp.Req.ID, cp.Inst, cp.FirstTokenUs, cp.DoneUs,
			cp.Attempts, cp.RetryUs, cp.Phases)
	}
	dg := m.Disagg
	m.Disagg = nil
	fmt.Fprintf(h, "%+v\n", m)
	if dg != nil {
		fmt.Fprintf(h, "%+v\n", *dg)
	}
}

// runCollecting is Run with the completions kept: the same arrival sort
// and the same event loop, stepped through Step.
func runCollecting(t *testing.T, c *Cluster, reqs []workload.Request) (Metrics, []serving.Completion) {
	t.Helper()
	c.hasRun = true
	c.pending = append([]workload.Request(nil), reqs...)
	sort.SliceStable(c.pending, func(a, b int) bool { return c.pending[a].ArrivalUs < c.pending[b].ArrivalUs })
	c.acc.m.Submitted = len(reqs)
	var comps []serving.Completion
	for hasWork(c) {
		done, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, done...)
	}
	return c.finishMetrics(), comps
}

// chaosSwapDigest runs a DiffKV swap-policy fleet of two through two
// overlapping crashes with restarts: instance 2 goes down while instance
// 1 still is, so its orphans find no live instance, wait out further
// backoffs and fail; both restarts resume the host tier's swapped
// sequences.
func chaosSwapDigest(t *testing.T, h hash.Hash) {
	tr := newTransit()
	plan := &faults.Plan{Seed: 7, Crashes: []faults.Crash{
		{Inst: 1, AtSec: 20, DownSec: 5},
		{Inst: 2, AtSec: 21, DownSec: 2},
	}}
	c := chaosCluster(t, plan, func(cfg *Config) {
		cfg.Instances = 2
		cfg.Tracer = tr
	})
	reqs := workload.NewRequestGen(workload.MATH, 2048, 11).CoTBatch(40)
	m, comps := runCollecting(t, c, reqs)
	// a failure on a first crash with budget to spare waited more than once
	waited := false
	for _, id := range tr.noLive {
		waited = waited || tr.retries[id] < c.inj.RetryBudget()
	}
	if m.Stuck() != 0 || m.SwapRecovered == 0 || m.Redispatches == 0 || !waited {
		t.Fatalf("run does not exercise what it pins: stuck %d, recovered %d, redispatched %d, no-live failures %v",
			m.Stuck(), m.SwapRecovered, m.Redispatches, tr.noLive)
	}
	digestCluster(h, m, comps)
}

// disaggMixedDigest runs a 2:2 disaggregated fleet with a fifth, mixed
// instance in batch mode, routed least-loaded: the mixed instance takes
// fresh prompts and adopts shipped prefills.
func disaggMixedDigest(t *testing.T, h hash.Hash) {
	c := newDisaggCluster(t, func(cfg *Config) {
		cfg.Instances = 5
		cfg.Policy = PolicyLeastLoaded
	})
	m, comps := runCollecting(t, c, disaggReqs(80, 40, 29))
	toMixed := 0
	if m.Disagg != nil {
		for _, l := range m.Disagg.Links {
			if l.To == 5 {
				toMixed += l.Transfers
			}
		}
	}
	if m.Stuck() != 0 || m.Disagg == nil || m.Disagg.Transfers == 0 || toMixed == 0 || m.PerInstance[4].Dispatched == 0 {
		t.Fatalf("run does not exercise what it pins: stuck %d, %d shipments to the mixed instance, %+v",
			m.Stuck(), toMixed, m.PerInstance)
	}
	digestCluster(h, m, comps)
}

// disaggSessionDigest opens sessions online on a 2:2 disaggregated fleet.
// Some token callbacks cancel the session opened before theirs, and one
// session is cancelled while its KV is on the wire.
func disaggSessionDigest(t *testing.T, h hash.Hash) {
	tr := newTransit()
	c := newDisaggCluster(t, func(cfg *Config) { cfg.Tracer = tr })
	reqs := disaggReqs(40, 16, 31)
	const wireVictim = 20
	var sess []*serving.Session
	var comps []serving.Completion
	step := func() {
		done, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, done...)
		if len(sess) > wireVictim {
			if s := sess[wireVictim]; tr.wire[s.ID()] && !s.Finished() {
				s.Cancel()
			}
		}
	}
	for i, r := range reqs {
		for {
			at, ok := c.NextTime()
			if !ok || float64(at) >= r.ArrivalUs {
				break
			}
			step()
		}
		r.ID = 0
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			prev := sess[i-1]
			s.OnToken(func(u serving.TokenUpdate) {
				if u.Generated == 6 {
					prev.Cancel()
				}
			})
		}
		sess = append(sess, s)
	}
	for hasWork(c) {
		step()
	}
	m := c.Metrics()
	_, victimErr := sess[wireVictim].Completion()
	if m.Stuck() != 0 || m.Cancelled < 3 || !errors.Is(victimErr, serving.ErrCancelled) || m.Disagg == nil {
		t.Fatalf("run does not exercise what it pins: stuck %d, cancelled %d, wire victim %v, %+v",
			m.Stuck(), m.Cancelled, victimErr, m.Disagg)
	}
	digestCluster(h, m, comps)
}

// chaosSessionDigest opens 24 sessions with future arrivals on a churn
// fleet before the first step, then drains it: faults fire in event
// order between the sessions' engine steps, and crash orphans are
// re-dispatched in session mode.
func chaosSessionDigest(t *testing.T, h hash.Hash) {
	c := chaosCluster(t, churnPlan(3), nil)
	var sess []*serving.Session
	for _, r := range chaosReqs(24, 8, 5) {
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sess = append(sess, s)
	}
	var comps []serving.Completion
	for hasWork(c) {
		done, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		comps = append(comps, done...)
	}
	m := c.Metrics()
	unfinished := 0
	for _, s := range sess {
		if !s.Finished() {
			unfinished++
		}
	}
	if m.Stuck() != 0 || m.Crashes == 0 || m.Redispatches == 0 || unfinished != 0 {
		t.Fatalf("run does not exercise what it pins: stuck %d, crashes %d, redispatched %d, %d sessions unfinished",
			m.Stuck(), m.Crashes, m.Redispatches, unfinished)
	}
	digestCluster(h, m, comps)
}

// clusterDigestRow is one pinned cluster run.
type clusterDigestRow struct {
	name, want string
	run        func(*testing.T, hash.Hash)
}

// clusterDigestRows are TestClusterDigestPinned's runs and their pins.
var clusterDigestRows = []clusterDigestRow{
	{"chaos-swap", "d226997e16f7d8001bdf101efb98f709f821729d625357bbacc602786208487b", chaosSwapDigest},
	{"disagg-mixed", "6213114b2e0d8344027be25aa79b11b3065a5aec6597bddc768304ceed78a30f", disaggMixedDigest},
	{"disagg-sessions", "3c52d0bcddc4b13b69ec6a01f3ab30e1bc533e6ac56f90b27e815acc37c21136", disaggSessionDigest},
	{"chaos-sessions", "191f955c2c849155fc52f28a77f55c8a7e4e96f690f032c78ec6a118c44730e7", chaosSessionDigest},
}

// check runs the row and compares its digest with the pin.
func (r clusterDigestRow) check(t *testing.T) {
	h := sha256.New()
	r.run(t, h)
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != r.want {
		t.Fatalf("digest %s, pinned %s", got, r.want)
	}
}

// TestClusterDigestPinned pins the cluster's simulated behaviour bit for
// bit on the paths that move a request between engines: crash orphans
// re-dispatched after a backoff (one row also finds every instance down)
// and prefill KV shipped to a decode instance, each in batch and session
// mode. Any change to event order, backoff draws, decode placement or
// wire timing moves a digest.
func TestClusterDigestPinned(t *testing.T) {
	for _, tc := range clusterDigestRows {
		t.Run(tc.name, tc.check)
	}
}

// TestClusterDigestAtFanOutBounds runs every TestClusterDigestPinned row,
// whose DiffKV instances step the page manager, with every generation step
// forced onto one path: drawn and planned in chunks on mathx.ForEach
// (threshold 0) or on the calling goroutine (math.MaxInt). Each row must
// still match its pinned constant. Under -short only the fanned-out half
// runs: it is the one the race detector has work in.
func TestClusterDigestAtFanOutBounds(t *testing.T) {
	kvcachetest.RunAtBounds(t, func(t *testing.T) {
		for _, tc := range clusterDigestRows {
			t.Run(tc.name, tc.check)
		}
	})
}
