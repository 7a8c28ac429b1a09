package trace

import "testing"

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
	if s.PreemptedSeqs[2] != 2 {
		t.Fatalf("preemption count = %d", s.PreemptedSeqs[2])
	}
}

// A request keeps its sequence ID on every instance it runs on (the
// cluster assigns it before routing), so its preemptions sum under one
// key across instances, and swap-outs count as preemptions alongside
// recompute evictions.
func TestSummarizePreemptionsKeyedBySeq(t *testing.T) {
	c := NewCollector(100)
	c.Emit(Event{Kind: KindPreempt, Seq: 7, Inst: 1})
	c.Emit(Event{Kind: KindPreempt, Seq: 7, Inst: 2})
	c.Emit(Event{Kind: KindSwapOut, Seq: 7, Inst: 2})
	s := c.Summarize()
	if n := s.PreemptedSeqs[7]; n != 3 {
		t.Fatalf("seq 7 preemptions = %d, want 3 (preempt on inst 1, preempt + swap_out on inst 2)", n)
	}
	if len(s.PreemptedSeqs) != 1 {
		t.Fatalf("preempted keys = %d, want 1: %+v", len(s.PreemptedSeqs), s.PreemptedSeqs)
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
