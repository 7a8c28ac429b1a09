package serving

// The running batch, kept as it changes. A step needs three things from
// e.running: its prompt-phase members (a step runs them, vLLM-style,
// while there are any), the longest generation member (the attention
// kernel's sequence splits) and the members that finished. None of them
// is a scan. Every generation step gives every running member one token,
// so a member's progress is a fixed offset from the engine's round count
// for as long as it stays in the generation phase: its token count is
// offset + round, and it finishes at the round where generated reaches
// GenLen. Two heaps over those keys answer the longest member and the
// next finisher; the summed tokens are e.residentTok. A completion is
// then an event read off the finisher heap, not a sweep over the batch.

import (
	"cmp"
	"slices"

	"diffkv/internal/mathx"
)

// batchView is the maintained partition of e.running. Records join it in
// run and leave it in leave; e.running stays in join order, which is the
// stamp order, and every sum over the batch depends on that order.
type batchView struct {
	prompting []*seqState // prompt-phase members, in running order
	round     int         // generation steps run
	stamps    uint64      // join stamps handed out

	// generation-phase members by heap ID (seqState.gen - 1): the record
	// and its keys, with freed IDs reused
	recs  []*seqState
	keys  []genKey
	free  []int
	width int                // the heaps' ID range
	due   *mathx.IndexedHeap // by (due round, stamp): the next finisher on top
	long  *mathx.IndexedHeap // by offset, largest first: the longest member on top
	fin   []*seqState        // finishers scratch, reused across steps
}

// genKey is what the heaps order a generation member by.
type genKey struct {
	due    int    // the round at which generated reaches GenLen
	stamp  uint64 // join stamp: the running order
	offset int    // tokens - round, fixed while the member generates
}

// join stamps a record entering e.running and files it by phase.
func (b *batchView) join(st *seqState) {
	st.stamp = b.stamps
	b.stamps++
	if st.promptDone {
		b.generate(st)
	} else {
		b.prompting = append(b.prompting, st)
	}
}

// generate enters a running member into the generation phase: at prompt
// done, at swap-in and at adoption. A member that is already due (GenLen
// 0, or adopted past its budget) finishes at the next sweep.
func (b *batchView) generate(st *seqState) {
	var id int
	if n := len(b.free); n > 0 {
		id, b.free = b.free[n-1], b.free[:n-1]
	} else {
		id = len(b.recs)
		b.recs, b.keys = append(b.recs, nil), append(b.keys, genKey{})
		b.widen(len(b.recs))
	}
	b.recs[id] = st
	b.keys[id] = genKey{due: b.round + st.req.GenLen - st.generated, stamp: st.stamp, offset: st.tokens() - b.round}
	st.gen = id + 1
	b.due.Set(id)
	b.long.Set(id)
}

// widen makes room in both heaps for the IDs [0, n), doubling.
func (b *batchView) widen(n int) {
	if n <= b.width {
		return
	}
	if b.due != nil {
		b.width = 2 * n
		b.due.Grow(b.width)
		b.long.Grow(b.width)
		return
	}
	b.width = max(n, 64)
	b.due = mathx.NewIndexedHeap(b.width, func(i, j int) bool {
		ki, kj := &b.keys[i], &b.keys[j]
		return ki.due < kj.due || ki.due == kj.due && ki.stamp < kj.stamp
	})
	b.long = mathx.NewIndexedHeap(b.width, func(i, j int) bool {
		oi, oj := b.keys[i].offset, b.keys[j].offset
		return oi > oj || oi == oj && i < j
	})
}

// leave takes a record off the view as it leaves e.running (completion,
// preemption, cancel).
func (b *batchView) leave(st *seqState) {
	if st.gen == 0 {
		if i := slices.Index(b.prompting, st); i >= 0 {
			b.prompting = slices.Delete(b.prompting, i, i+1)
		}
		return
	}
	id := st.gen - 1
	st.gen = 0
	b.due.Remove(id)
	b.long.Remove(id)
	b.recs[id] = nil
	b.free = append(b.free, id)
}

// promptsRan drops the members whose prompt has run (they entered the
// generation phase at prompt done) from the prompt-phase list.
func (b *batchView) promptsRan() {
	b.prompting = slices.DeleteFunc(b.prompting, func(st *seqState) bool { return st.promptDone })
}

// longest is the largest token count among the generation members, 0
// when there are none.
func (b *batchView) longest() int {
	if b.long == nil {
		return 0
	}
	id, ok := b.long.Top()
	if !ok {
		return 0
	}
	return b.keys[id].offset + b.round
}

// finishers takes the members whose generation is due off the finisher
// heap and returns them in running order. They stay members until leave;
// one that is not retired goes back with refile.
func (b *batchView) finishers() []*seqState {
	fin := b.fin[:0]
	for b.due != nil {
		id, ok := b.due.Top()
		if !ok || b.keys[id].due > b.round {
			break
		}
		b.due.Remove(id)
		fin = append(fin, b.recs[id])
	}
	if len(fin) > 1 {
		slices.SortFunc(fin, func(x, y *seqState) int { return cmp.Compare(x.stamp, y.stamp) })
	}
	b.fin = fin
	return fin
}

// refile puts a finisher that stayed in e.running back on the finisher
// heap.
func (b *batchView) refile(st *seqState) { b.due.Set(st.gen - 1) }
