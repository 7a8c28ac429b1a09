package main

import (
	"testing"

	"diffkv/internal/trace"
)

// A crash orphan keeps its sequence ID when it is re-dispatched, so a
// request preempted on one instance and again on another is one request
// in the storm, not two.
func TestStormCountsRequestsBySeq(t *testing.T) {
	events := []trace.Event{
		{Kind: trace.KindPreempt, TimeUs: 1000, Seq: 7, Inst: 1},
		{Kind: trace.KindPreempt, TimeUs: 2000, Seq: 7, Inst: 2},
	}
	rep := analyze(events, trace.BuildRequestSpans(events), 100e3, 2)
	if len(rep.Storms) != 1 {
		t.Fatalf("storms = %+v, want one", rep.Storms)
	}
	if s := rep.Storms[0]; s.Preemptions != 2 || s.Requests != 1 {
		t.Fatalf("storm = %+v, want 2 preemptions across 1 request", s)
	}
}
