package telemetry_test

import (
	"context"
	"math"
	"testing"

	"diffkv"
	"diffkv/internal/cluster"
	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
)

// driveScenario runs a checked-in scenario online: each request is
// opened at its arrival, after every earlier event has fired, and the
// cluster then drains. It returns the trace, each request's Completion
// by ID, and the cluster's metrics.
func driveScenario(t *testing.T, path string) ([]trace.Event, map[int]serving.Completion, cluster.Metrics) {
	t.Helper()
	sc, err := diffkv.LoadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	col := trace.NewCollector(1 << 20)
	sc.Tracer = col
	st, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := st.Cluster
	var sessions []*serving.Session
	for _, r := range st.Requests() {
		for at, ok := c.NextTime(); ok && float64(at) < r.ArrivalUs; at, ok = c.NextTime() {
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		s, err := c.Open(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
	}
	if err := c.DrainContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	comps := map[int]serving.Completion{}
	for _, s := range sessions {
		if cp, err := s.Completion(); err == nil {
			comps[cp.Req.ID] = cp
		}
	}
	return col.Events(), comps, c.Metrics()
}

// TestSpanTreePerRequest: on a disaggregated run (every request crosses
// a prefill and a decode instance) and a chaos run (crash re-dispatches),
// the offline tools see each request once. There is one span tree per
// submitted request; as many complete as the cluster completed; each
// completed tree's phases, E2E and TTFT equal its Completion's within
// 1µs; and Replay counts the same completions with nothing left queued
// or running after the drain.
func TestSpanTreePerRequest(t *testing.T) {
	for _, name := range []string{"scenario_disagg", "scenario_chaos"} {
		t.Run(name, func(t *testing.T) {
			events, comps, m := driveScenario(t, "../../testdata/"+name+".json")
			trees := trace.BuildRequestSpans(events)
			if len(trees) != m.Submitted {
				t.Fatalf("%d span trees for %d submitted requests", len(trees), m.Submitted)
			}
			completed, failed := 0, 0
			for _, rt := range trees {
				if rt.Failed {
					failed++
				}
				if !rt.Completed {
					continue
				}
				completed++
				cp, ok := comps[rt.Seq]
				if !ok {
					t.Fatalf("tree %d completed but its request did not", rt.Seq)
				}
				near := func(what string, got, want float64) {
					if math.Abs(got-want) > 1 {
						t.Fatalf("request %d: tree %s %.3fµs, completion %.3fµs", rt.Seq, what, got, want)
					}
				}
				got, want := rt.Phases, cp.Phases
				near("queue", got.QueueUs, want.QueueUs)
				near("prefill", got.PrefillUs, want.PrefillUs)
				near("decode", got.DecodeUs, want.DecodeUs)
				near("stall", got.StallUs, want.StallUs)
				near("swapped", got.SwappedUs, want.SwappedUs)
				near("xfer", got.XferUs, want.XferUs)
				near("e2e", rt.E2EUs(), cp.E2EUs())
				ttft, ok := rt.TTFTUs()
				if !ok {
					t.Fatalf("request %d: completed tree has no prefill", rt.Seq)
				}
				near("ttft", ttft, cp.TTFTUs())
			}
			if completed != m.Completed || completed != len(comps) || failed != m.Failed {
				t.Fatalf("trees: %d completed, %d failed; cluster: %d completed (%d sessions), %d failed",
					completed, failed, m.Completed, len(comps), m.Failed)
			}
			snap := telemetry.Replay(events)
			if snap.Cluster.Completed != int64(m.Completed) {
				t.Fatalf("replay completed %d, cluster %d", snap.Cluster.Completed, m.Completed)
			}
			if snap.Cluster.QueueDepth != 0 || snap.Cluster.Running != 0 {
				t.Fatalf("replay after the drain: %d queued, %d running", snap.Cluster.QueueDepth, snap.Cluster.Running)
			}
			if n := snap.Latency["e2e"].Count; n != int64(m.Completed) {
				t.Fatalf("replay has %d e2e samples for %d completions", n, m.Completed)
			}
			if n := snap.Latency["ttft"].Count; n != int64(m.Completed) {
				t.Fatalf("replay has %d ttft samples for %d completions", n, m.Completed)
			}
		})
	}
}
