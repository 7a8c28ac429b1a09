package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// preemptLifecycle is a request that survives a swap preemption:
// open → admit → first token → swap out → swap in → complete.
func preemptLifecycle() []Event {
	return []Event{
		{Kind: KindOpen, TimeUs: 0, Seq: 1},
		{Kind: KindAdmit, TimeUs: 100, Seq: 1},
		{Kind: KindFirstToken, TimeUs: 400, Seq: 1},
		{Kind: KindGenStep, TimeUs: 500, Batch: 2, DurUs: 100},
		{Kind: KindSwapOut, TimeUs: 900, Seq: 1, Bytes: 4096, DurUs: 50},
		{Kind: KindSwapIn, TimeUs: 1500, Seq: 1, Bytes: 4096, DurUs: 50},
		{Kind: KindComplete, TimeUs: 2100, Seq: 1},
	}
}

// The golden span tree of a preempt→swap-out→swap-in→complete
// lifecycle: phase children in time order, transfer sub-spans carrying
// the byte counts, and a breakdown that sums to end-to-end exactly.
func TestBuildRequestSpansGolden(t *testing.T) {
	trees := BuildRequestSpans(preemptLifecycle())
	if len(trees) != 1 {
		t.Fatalf("trees = %d, want 1", len(trees))
	}
	rt := trees[0]
	if rt.Seq != 1 || !rt.Completed || rt.Cancelled {
		t.Fatalf("request state wrong: %+v", rt)
	}
	if rt.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", rt.Preemptions)
	}
	if rt.StartUs != 0 || rt.EndUs != 2100 {
		t.Fatalf("bounds [%g, %g], want [0, 2100]", rt.StartUs, rt.EndUs)
	}

	want := []Span{
		{Name: "queue", StartUs: 0, EndUs: 100},
		{Name: "prefill", StartUs: 100, EndUs: 400},
		{Name: "decode", StartUs: 400, EndUs: 900},
		{Name: SpanXferD2H, StartUs: 900, EndUs: 950, Bytes: 4096},
		{Name: "swapped", StartUs: 900, EndUs: 1500},
		{Name: SpanXferH2D, StartUs: 1500, EndUs: 1550, Bytes: 4096},
		{Name: "decode", StartUs: 1500, EndUs: 2100},
	}
	if len(rt.Root.Children) != len(want) {
		t.Fatalf("children = %d, want %d: %+v", len(rt.Root.Children), len(want), rt.Root.Children)
	}
	// xfer spans are appended after the phase transition they ride on, so
	// compare as a set keyed by (name, start)
	got := map[[2]interface{}]Span{}
	for _, sp := range rt.Root.Children {
		got[[2]interface{}{sp.Name, sp.StartUs}] = Span{
			Name: sp.Name, StartUs: sp.StartUs, EndUs: sp.EndUs, Bytes: sp.Bytes}
	}
	for _, w := range want {
		g, ok := got[[2]interface{}{w.Name, w.StartUs}]
		if !ok {
			t.Fatalf("missing span %+v in %+v", w, rt.Root.Children)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("span %s@%g = %+v, want %+v", w.Name, w.StartUs, g, w)
		}
	}

	wantBd := PhaseBreakdown{QueueUs: 100, PrefillUs: 300, DecodeUs: 1100, SwappedUs: 600}
	if rt.Phases != wantBd {
		t.Fatalf("phases = %+v, want %+v", rt.Phases, wantBd)
	}
	if math.Abs(rt.Phases.TotalUs()-rt.E2EUs()) > 1e-9 {
		t.Fatalf("phase sum %g != e2e %g", rt.Phases.TotalUs(), rt.E2EUs())
	}
}

// A recompute preemption routes through the stall phase instead.
func TestBuildRequestSpansRecomputeStall(t *testing.T) {
	events := []Event{
		{Kind: KindOpen, TimeUs: 0, Seq: 3},
		{Kind: KindAdmit, TimeUs: 50, Seq: 3},
		{Kind: KindFirstToken, TimeUs: 200, Seq: 3},
		{Kind: KindPreempt, TimeUs: 300, Seq: 3},
		{Kind: KindAdmit, TimeUs: 700, Seq: 3}, // re-admission restarts prefill
		{Kind: KindFirstToken, TimeUs: 900, Seq: 3},
		{Kind: KindComplete, TimeUs: 1000, Seq: 3},
	}
	rt := FindRequestSpans(BuildRequestSpans(events), 3)
	if rt == nil {
		t.Fatal("request 3 missing")
	}
	want := PhaseBreakdown{QueueUs: 50, PrefillUs: 150 + 200, DecodeUs: 100 + 100, StallUs: 400}
	if rt.Phases != want {
		t.Fatalf("phases = %+v, want %+v", rt.Phases, want)
	}
	if math.Abs(rt.Phases.TotalUs()-rt.E2EUs()) > 1e-9 {
		t.Fatalf("phase sum %g != e2e %g", rt.Phases.TotalUs(), rt.E2EUs())
	}
}

// A disaggregated request is one tree across its prefill and decode
// instances: kv_ship reopens the tree its prefill child's completion
// closed. An in-flight request gets an open-ended tree truncated at its
// last event, in the phase it was in.
func TestBuildRequestSpansCrossInstance(t *testing.T) {
	events := []Event{
		{Kind: KindOpen, TimeUs: 0, Seq: 1, Inst: 1},
		{Kind: KindDispatch, TimeUs: 0, Seq: 1, Inst: 1},
		{Kind: KindAdmit, TimeUs: 20, Seq: 1, Inst: 1},
		{Kind: KindOpen, TimeUs: 100, Seq: 2, Inst: 2},
		{Kind: KindAdmit, TimeUs: 150, Seq: 2, Inst: 2},
		{Kind: KindFirstToken, TimeUs: 300, Seq: 1, Inst: 1},
		{Kind: KindComplete, TimeUs: 400, Seq: 1, Inst: 1}, // the prefill child
		{Kind: KindKVShip, TimeUs: 400, Seq: 1, Inst: 3, DurUs: 50, Bytes: 1 << 20},
		{Kind: KindOpen, TimeUs: 450, Seq: 1, Inst: 3},
		{Kind: KindAdmit, TimeUs: 470, Seq: 1, Inst: 3, Note: "adopt"},
		{Kind: KindComplete, TimeUs: 900, Seq: 1, Inst: 3},
	}
	trees := BuildRequestSpans(events)
	if len(trees) != 2 {
		t.Fatalf("trees = %d, want 2 (one per request)", len(trees))
	}
	if rt := trees[1]; rt.Seq != 2 || rt.Completed || rt.Phase != PhasePrefill || rt.EndUs != 150 {
		t.Fatalf("in-flight tree wrong: %+v", rt)
	}
	rt := trees[0]
	if rt.Phase != "" || !rt.Completed || rt.Inst != 3 || rt.StartUs != 0 || rt.EndUs != 900 {
		t.Fatalf("tree should complete on the decode instance at 900: %+v", rt)
	}
	want := PhaseBreakdown{QueueUs: 20 + 20, PrefillUs: 280, DecodeUs: 100 + 430, XferUs: 50}
	if rt.Phases != want {
		t.Fatalf("phases = %+v, want %+v", rt.Phases, want)
	}
	if ttft, ok := rt.TTFTUs(); !ok || ttft != 300 {
		t.Fatalf("ttft = %g (%v), want 300", ttft, ok)
	}
	var ship *Span
	for _, c := range rt.Root.Children {
		if c.Name == SpanXferInst && c.Bytes > 0 {
			ship = c
		}
	}
	if ship == nil || ship.Bytes != 1<<20 || ship.EndUs != 450 {
		t.Fatalf("xfer:inst child %+v, want 1 MiB ending at 450", ship)
	}
}

// A Perfetto export must round-trip its raw events and contain the
// async request slices and step slices the viewer renders.
func TestPerfettoRoundTrip(t *testing.T) {
	events := preemptLifecycle()
	c := NewCollector(len(events))
	for _, e := range events {
		c.Emit(e)
	}
	var buf bytes.Buffer
	if err := c.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"traceEvents"`, `"ph":"b"`, `"ph":"e"`, `"ph":"X"`, `"diffkvEvents"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("perfetto output lacks %s", want)
		}
	}
	back, err := ReadEvents(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("round trip changed events:\n got %+v\nwant %+v", back, events)
	}
}

// Perfetto files are the one trace format: ReadEvents rejects JSON
// lines, and anything else without embedded diffkvEvents.
func TestReadEventsJSONL(t *testing.T) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range preemptLifecycle() {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range []string{buf.String(), "not json\n", `{"traceEvents":[]}`} {
		if _, err := ReadEvents(strings.NewReader(in)); err == nil {
			t.Errorf("ReadEvents(%.40q) succeeded, want an error", in)
		}
	}
}
