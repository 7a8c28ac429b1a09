package trace

import "testing"

// A request that is dispatched, crashes with its instance, and is
// terminally failed must rebuild into a tree that ends at the fail
// event with Failed set — and the retry marker must be counted.
func TestSpanTreeFailTerminal(t *testing.T) {
	events := []Event{
		{Kind: KindOpen, TimeUs: 0, Seq: 9, Inst: 1},
		{Kind: KindDispatch, TimeUs: 0, Seq: 9, Inst: 1},
		{Kind: KindAdmit, TimeUs: 100, Seq: 9, Inst: 1},
		{Kind: KindRetry, TimeUs: 500, Seq: 9, Inst: 1, Note: "crash"},
		{Kind: KindFail, TimeUs: 900, Seq: 9, Inst: 1, Note: "retry budget exhausted"},
	}
	trees := BuildRequestSpans(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	rt := trees[0]
	if !rt.Failed || rt.Completed || rt.Cancelled {
		t.Fatalf("terminal flags wrong: %+v", rt)
	}
	if rt.FailReason != "retry budget exhausted" {
		t.Fatalf("fail reason %q", rt.FailReason)
	}
	if rt.Retries != 1 {
		t.Fatalf("retries = %d, want 1", rt.Retries)
	}
	if rt.EndUs != 900 {
		t.Fatalf("tree should end at the fail event, got %g", rt.EndUs)
	}
	if got := rt.Phases.TotalUs(); got != 900 {
		t.Fatalf("phase sum %g, want 900 (arrival to terminal failure)", got)
	}
	// the retry marker must be in the tree
	found := false
	for _, c := range rt.Root.Children {
		if c.Name == SpanRetry {
			found = true
		}
	}
	if !found {
		t.Fatal("no retry marker child span")
	}
}

// A crash-orphaned request re-dispatched to a second instance stays one
// tree: the retry keeps it in queue until the re-dispatch readmits it,
// the second prompt pass moves its TTFT, and the phases sum to e2e.
func TestSpanTreeSpansRedispatch(t *testing.T) {
	events := []Event{
		{Kind: KindOpen, TimeUs: 0, Seq: 7, Inst: 1},
		{Kind: KindAdmit, TimeUs: 50, Seq: 7, Inst: 1},
		{Kind: KindRetry, TimeUs: 400, Seq: 7, Inst: 1, Note: "crash"},
		{Kind: KindDispatch, TimeUs: 600, Seq: 7, Inst: 2},
		{Kind: KindAdmit, TimeUs: 650, Seq: 7, Inst: 2},
		{Kind: KindFirstToken, TimeUs: 800, Seq: 7, Inst: 2},
		{Kind: KindComplete, TimeUs: 1000, Seq: 7, Inst: 2},
	}
	trees := BuildRequestSpans(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1 (one per request)", len(trees))
	}
	rt := trees[0]
	if !rt.Completed || rt.Retries != 1 || rt.Inst != 2 || rt.StartUs != 0 || rt.EndUs != 1000 {
		t.Fatalf("tree should complete on instance 2 at 1000 after one retry: %+v", rt)
	}
	want := PhaseBreakdown{QueueUs: 50 + 250, PrefillUs: 350 + 150, DecodeUs: 200}
	if rt.Phases != want {
		t.Fatalf("phases = %+v, want %+v", rt.Phases, want)
	}
	if ttft, ok := rt.TTFTUs(); !ok || ttft != 800 {
		t.Fatalf("ttft = %g (%v), want 800: the last prompt pass", ttft, ok)
	}
	var markers []string
	for _, c := range rt.Root.Children {
		if c.StartUs == c.EndUs {
			markers = append(markers, c.Name)
		}
	}
	if len(markers) != 2 || markers[0] != SpanRetry || markers[1] != SpanDispatch {
		t.Fatalf("markers %v, want [retry dispatch]", markers)
	}
}

// A recover marker lands inside the swapped phase of a surviving tree.
func TestSpanTreeRecoverMarker(t *testing.T) {
	events := []Event{
		{Kind: KindOpen, TimeUs: 0, Seq: 3, Inst: 1},
		{Kind: KindAdmit, TimeUs: 10, Seq: 3, Inst: 1},
		{Kind: KindFirstToken, TimeUs: 100, Seq: 3, Inst: 1},
		{Kind: KindSwapOut, TimeUs: 200, Seq: 3, Inst: 1, Bytes: 4096, DurUs: 30},
		{Kind: KindRecover, TimeUs: 900, Seq: 3, Inst: 1, Bytes: 4096},
		{Kind: KindSwapIn, TimeUs: 950, Seq: 3, Inst: 1, Bytes: 4096, DurUs: 30},
		{Kind: KindComplete, TimeUs: 1200, Seq: 3, Inst: 1},
	}
	trees := BuildRequestSpans(events)
	if len(trees) != 1 {
		t.Fatalf("got %d trees, want 1", len(trees))
	}
	rt := trees[0]
	if !rt.Completed {
		t.Fatal("request should complete")
	}
	var rec *Span
	for _, c := range rt.Root.Children {
		if c.Name == SpanRecover {
			rec = c
		}
	}
	if rec == nil || rec.Bytes != 4096 {
		t.Fatalf("recover marker missing or wrong bytes: %+v", rec)
	}
	if got := rt.Phases.TotalUs(); got != 1200 {
		t.Fatalf("phase sum %g, want 1200", got)
	}
}
