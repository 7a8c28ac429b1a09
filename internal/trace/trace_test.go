package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestCollectorBasics(t *testing.T) {
	c := NewCollector(10)
	c.Emit(Event{Kind: KindAdmit, TimeUs: 1, Seq: 5})
	c.Emit(Event{Kind: KindGenStep, TimeUs: 2, Batch: 3, DurUs: 100})
	evs := c.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].Kind != KindAdmit || evs[1].Batch != 3 {
		t.Fatalf("events wrong: %+v", evs)
	}
	if c.Dropped() != 0 {
		t.Fatal("nothing should be dropped")
	}
}

func TestCollectorRing(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Emit(Event{Kind: KindGenStep, TimeUs: float64(i)})
	}
	evs := c.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d", len(evs))
	}
	// oldest retained is event 6
	if evs[0].TimeUs != 6 || evs[3].TimeUs != 9 {
		t.Fatalf("ring order wrong: %+v", evs)
	}
	if c.Dropped() != 6 {
		t.Fatalf("dropped = %d", c.Dropped())
	}
}

func TestCollectorDefaultCapacity(t *testing.T) {
	c := NewCollector(0)
	if c.cap != 65536 {
		t.Fatalf("default cap = %d", c.cap)
	}
}

func TestSummarize(t *testing.T) {
	c := NewCollector(100)
	c.Emit(Event{Kind: KindAdmit, Seq: 1})
	c.Emit(Event{Kind: KindPromptStep, Batch: 4, DurUs: 500})
	c.Emit(Event{Kind: KindGenStep, Batch: 8, DurUs: 100})
	c.Emit(Event{Kind: KindGenStep, Batch: 6, DurUs: 150})
	c.Emit(Event{Kind: KindPreempt, Seq: 2})
	c.Emit(Event{Kind: KindPreempt, Seq: 2})
	c.Emit(Event{Kind: KindComplete, Seq: 1})
	s := c.Summarize()
	if s.Counts[KindGenStep] != 2 || s.Counts[KindPreempt] != 2 {
		t.Fatalf("counts wrong: %+v", s.Counts)
	}
	if s.StepTimeUs[KindGenStep] != 250 {
		t.Fatalf("gen step time = %v", s.StepTimeUs[KindGenStep])
	}
	if s.MaxBatch != 8 {
		t.Fatalf("max batch = %d", s.MaxBatch)
	}
	if s.PreemptedSeqs[InstSeq{Seq: 2}] != 2 {
		t.Fatalf("preemption count = %d", s.PreemptedSeqs[InstSeq{Seq: 2}])
	}
}

// Equal sequence IDs on different instances must not collide in the
// preemption aggregate (cluster engines assign auto IDs independently),
// and swap-outs count as preemptions alongside recompute evictions.
func TestSummarizePreemptionsKeyedPerInstance(t *testing.T) {
	c := NewCollector(100)
	c.Emit(Event{Kind: KindPreempt, Seq: 7, Inst: 1})
	c.Emit(Event{Kind: KindPreempt, Seq: 7, Inst: 2})
	c.Emit(Event{Kind: KindSwapOut, Seq: 7, Inst: 2})
	s := c.Summarize()
	if n := s.PreemptedSeqs[InstSeq{Inst: 1, Seq: 7}]; n != 1 {
		t.Fatalf("inst 1 preemptions = %d, want 1", n)
	}
	if n := s.PreemptedSeqs[InstSeq{Inst: 2, Seq: 7}]; n != 2 {
		t.Fatalf("inst 2 preemptions = %d, want 2 (preempt + swap_out)", n)
	}
	if len(s.PreemptedSeqs) != 2 {
		t.Fatalf("preempted keys = %d, want 2: %+v", len(s.PreemptedSeqs), s.PreemptedSeqs)
	}
}

// InstSeq must survive a JSON map-key round trip ("inst/seq" text form).
func TestInstSeqJSONRoundTrip(t *testing.T) {
	in := map[InstSeq]int{{Inst: 3, Seq: 41}: 2, {Seq: 5}: 1}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"3/41"`) {
		t.Fatalf("marshaled form %s lacks inst/seq key", data)
	}
	var out map[InstSeq]int
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out[InstSeq{Inst: 3, Seq: 41}] != 2 || out[InstSeq{Seq: 5}] != 1 {
		t.Fatalf("round trip lost data: %+v", out)
	}
}

func TestCollectorSubscribe(t *testing.T) {
	c := NewCollector(10)
	ch, cancel := c.Subscribe(4)
	c.Emit(Event{Kind: KindAdmit, Seq: 1})
	c.Emit(Event{Kind: KindComplete, Seq: 1})
	if e := <-ch; e.Kind != KindAdmit {
		t.Fatalf("first tapped event = %+v", e)
	}
	if e := <-ch; e.Kind != KindComplete {
		t.Fatalf("second tapped event = %+v", e)
	}
	cancel()
	if _, ok := <-ch; ok {
		t.Fatal("channel should be closed after cancel")
	}
	// emissions after cancel must not panic or deliver
	c.Emit(Event{Kind: KindAdmit, Seq: 2})
	cancel() // idempotent
}

// Cancelling one of three taps leaves the other two receiving every
// later event, in emission order, while another goroutine emits.
func TestCollectorCancelMiddleTap(t *testing.T) {
	const n = 200
	c := NewCollector(0)
	first, cancelFirst := c.Subscribe(n)
	defer cancelFirst()
	middle, cancelMiddle := c.Subscribe(n)
	last, cancelLast := c.Subscribe(n)
	defer cancelLast()
	cancelMiddle()
	if _, ok := <-middle; ok {
		t.Fatal("cancelled tap still open")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			c.Emit(Event{Kind: KindGenStep, Seq: i})
		}
	}()
	for name, ch := range map[string]<-chan Event{"first": first, "last": last} {
		for i := 0; i < n; i++ {
			if e := <-ch; e.Seq != i {
				t.Fatalf("%s tap: event %d has seq %d", name, i, e.Seq)
			}
		}
	}
	<-done
}

// A subscriber that never drains must not block Emit.
func TestCollectorSubscribeSlowConsumer(t *testing.T) {
	c := NewCollector(100)
	_, cancel := c.Subscribe(2)
	defer cancel()
	for i := 0; i < 50; i++ {
		c.Emit(Event{Kind: KindGenStep, TimeUs: float64(i)})
	}
	if got := c.Retained(); got != 50 {
		t.Fatalf("retained = %d, want 50", got)
	}
}

func TestWriteJSONL(t *testing.T) {
	c := NewCollector(10)
	c.Emit(Event{Kind: KindAdmit, TimeUs: 1.5, Seq: 9})
	c.Emit(Event{Kind: KindGenStep, TimeUs: 3, Batch: 2, DurUs: 42})
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindAdmit || e.Seq != 9 {
		t.Fatalf("decoded %+v", e)
	}
}

func TestCollectorConcurrentEmit(t *testing.T) {
	c := NewCollector(1000)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 500; i++ {
				c.Emit(Event{Kind: KindGenStep})
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if len(c.Events())+c.Dropped() != 2000 {
		t.Fatal("events lost under concurrency")
	}
}
