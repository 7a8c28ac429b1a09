package kvcache

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

// compactManager is a counts-only manager with 8 KB pages at dim 128 (37
// tokens per high page, 68 per low page) and a page table of
// ceil(maxSeqLen/37) slots.
func compactManager(t *testing.T, numPages, maxSeqLen int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Dim: 128, PageBytes: 8192, NumPages: numPages,
		HiPrec: quant.K8V4, LoPrec: quant.K4V2, MaxSeqLen: maxSeqLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// headState and managerState are everything a compaction may change.
type headState struct {
	Hi, Lo             []int32
	HiTokens, LoTokens int
}

type managerState struct {
	Free, Used, Start int
	Ring              []int32
	SeqIDs            []int
	Heads             [][]headState // by SeqIDs index
}

func captureState(m *Manager) managerState {
	st := managerState{
		Free: m.FreePages(), Used: m.UsedPages(), Start: m.free.start,
		Ring: append([]int32(nil), m.free.ring...),
	}
	for id := range m.seqs {
		st.SeqIDs = append(st.SeqIDs, id)
	}
	sort.Ints(st.SeqIDs)
	for _, id := range st.SeqIDs {
		var heads []headState
		sc := m.seqs[id]
		for h := range sc.heads {
			hc := sc.Head(h)
			heads = append(heads, headState{
				Hi: sideIDs(&hc.table, LevelHi), Lo: sideIDs(&hc.table, LevelLo),
				HiTokens: hc.HiTokens(), LoTokens: hc.LoTokens(),
			})
		}
		st.Heads = append(st.Heads, heads)
	}
	return st
}

// A compaction that returns an error has moved no page, table entry or
// token count, and registered nothing.
func TestCompactFailureLeavesNothingBehind(t *testing.T) {
	const capHi, capLo = 37, 68
	// fill registers seq id with one head per demand and prompt-compacts it
	fill := func(t *testing.T, m *Manager, id, promptLen int, demands ...HeadDemand) {
		t.Helper()
		if _, err := m.AddSequence(id, len(demands)); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PromptCompact(id, promptLen, demands); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// setup builds the manager; fail is the call that must return an error
		setup func(t *testing.T) *Manager
		fail  func(m *Manager) error
	}{
		{
			// 6000 tokens against a 4096-token table: head 0 (mostly pruned)
			// fits its 111 slots, head 1 does not
			name: "prompt table overflow at head 1",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 1024, 4096)
				m.AddSequence(1, 3)
				return m
			},
			fail: func(m *Manager) error {
				_, err := m.PromptCompact(1, 6000, []HeadDemand{{HiTokens: 100, LoTokens: 100}, {HiTokens: 5400}, {HiTokens: 100}})
				return err
			},
		},
		{
			// conservative allocation is one page per head; head 1 rounds up
			// in both tiers and needs a second, and the pool has only the
			// three conservative pages
			name: "prompt top-up one page short",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 8, 4096)
				fill(t, m, 9, 5*capHi, HeadDemand{HiTokens: 5 * capHi})
				m.AddSequence(1, 3)
				return m
			},
			fail: func(m *Manager) error {
				_, err := m.PromptCompact(1, capHi, []HeadDemand{{HiTokens: capHi}, {HiTokens: 1, LoTokens: capHi - 1}, {HiTokens: capHi}})
				return err
			},
		},
		{
			name: "prompt demand exceeds prompt at head 1",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 64, 4096)
				m.AddSequence(1, 3)
				return m
			},
			fail: func(m *Manager) error {
				_, err := m.PromptCompact(1, 10, []HeadDemand{{HiTokens: 5, LoTokens: 5}, {HiTokens: 8, LoTokens: 8}, {HiTokens: 1}})
				return err
			},
		},
		{
			// both heads sit on a page boundary and one page is free
			name: "gen out of pages",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 3, 4096)
				fill(t, m, 1, capHi, HeadDemand{HiTokens: capHi}, HeadDemand{HiTokens: capHi})
				return m
			},
			fail: func(m *Manager) error {
				_, err := m.GenCompact([]int{1}, [][]GenDemand{{{HiDelta: 1}, {HiDelta: 1}}})
				return err
			},
		},
		{
			// a two-slot table: head 0 grows into its second slot, head 1
			// already fills both
			name: "gen table overflow at head 1",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 16, 2*capHi)
				fill(t, m, 1, 2*capHi, HeadDemand{HiTokens: capHi}, HeadDemand{HiTokens: 2 * capHi})
				return m
			},
			fail: func(m *Manager) error {
				_, err := m.GenCompact([]int{1}, [][]GenDemand{{{HiDelta: 1}, {HiDelta: 1}}})
				return err
			},
		},
		{
			name: "adopt out of pages",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 4, 4096)
				fill(t, m, 9, capHi, HeadDemand{HiTokens: capHi})
				return m
			},
			fail: func(m *Manager) error {
				err := m.AdoptCounts(1, []HeadDemand{{HiTokens: capHi, LoTokens: capLo}, {HiTokens: capHi, LoTokens: capLo}})
				return err
			},
		},
		{
			name: "adopt over slots at head 1",
			setup: func(t *testing.T) *Manager {
				m := compactManager(t, 16, 2*capHi)
				return m
			},
			fail: func(m *Manager) error {
				err := m.AdoptCounts(1, []HeadDemand{{HiTokens: capHi}, {HiTokens: 2 * capHi, LoTokens: 1}})
				return err
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.setup(t)
			before := captureState(m)
			if err := tc.fail(m); err == nil {
				t.Fatal("expected an error")
			}
			if after := captureState(m); !reflect.DeepEqual(before, after) {
				t.Fatalf("failed call changed the manager:\nbefore %+v\nafter  %+v", before, after)
			}
			for _, id := range before.SeqIDs {
				if err := m.ReleaseSequence(id); err != nil {
					t.Fatal(err)
				}
			}
			if m.FreePages() != m.Config().NumPages || m.MetadataBytes() != 0 {
				t.Fatalf("after release: %d of %d pages free, %d metadata bytes",
					m.FreePages(), m.Config().NumPages, m.MetadataBytes())
			}
		})
	}
}

// checkConservation asserts that the free ring and the page tables
// together hold every page ID exactly once, that each registered sequence's
// tables slice its own block of the manager's table length, and that every
// table entry no page holds is -1. Every spare record must be one no
// sequence is registered under, with each table empty, every entry of its
// block -1 and no tokens.
func checkConservation(t *testing.T, m *Manager, op string) {
	t.Helper()
	n := m.Config().NumPages
	seen := make([]bool, n)
	mark := func(id int32, where string) {
		if id < 0 || int(id) >= n || seen[id] {
			t.Fatalf("after %s: page %d out of range or held twice (%s)", op, id, where)
		}
		seen[id] = true
	}
	unused := func(entries []int32) bool {
		for _, id := range entries {
			if id != -1 {
				return false
			}
		}
		return true
	}
	checkShape := func(sc *SeqCache, what string) {
		if len(sc.block) != len(sc.heads)*m.slots {
			t.Fatalf("after %s: %s has a %d-entry block for %d heads of %d slots", op, what, len(sc.block), len(sc.heads), m.slots)
		}
		for h := range sc.heads {
			hc := &sc.heads[h]
			bt := &hc.table
			if len(bt.slots) != m.slots || &bt.slots[0] != &sc.block[h*m.slots] {
				t.Fatalf("after %s: %s head %d's table is not its block's slice", op, what, h)
			}
			if hc.seq != sc {
				t.Fatalf("after %s: %s head %d's sequence is not its record", op, what, h)
			}
		}
	}
	fl := m.free
	for i := 0; i < fl.freeCnt; i++ {
		mark(fl.ring[(fl.start+i)%len(fl.ring)], "ring")
	}
	held, meta := 0, 0
	registered := map[*SeqCache]bool{}
	for seq, sc := range m.seqs {
		registered[sc] = true
		checkShape(sc, fmt.Sprintf("seq %d", seq))
		for h := range sc.heads {
			bt := &sc.heads[h].table
			for _, id := range sideIDs(bt, LevelHi) {
				mark(id, "hi table")
			}
			for _, id := range sideIDs(bt, LevelLo) {
				mark(id, "lo table")
			}
			if !unused(bt.slots[bt.count(LevelHi) : len(bt.slots)-bt.count(LevelLo)]) {
				t.Fatalf("after %s: seq %d head %d holds a page ID between its two sides", op, seq, h)
			}
			held += bt.count(LevelHi) + bt.count(LevelLo)
			meta += bt.MetadataBytes()
		}
	}
	for i, sc := range m.spare {
		what := fmt.Sprintf("spare record %d", i)
		if registered[sc] {
			t.Fatalf("after %s: %s is registered as seq %d", op, what, sc.ID)
		}
		registered[sc] = true // a record on the list twice would be handed out twice
		checkShape(sc, what)
		if !unused(sc.block) {
			t.Fatalf("after %s: %s holds a page ID", op, what)
		}
		for h := range sc.heads {
			if hc := &sc.heads[h]; hc.table.n != [2]int{} || hc.tokens != [2]int{} {
				t.Fatalf("after %s: %s head %d has %v pages and %v tokens", op, what, h, hc.table.n, hc.tokens)
			}
		}
	}
	checkTotals(t, m, op)
	if fl.freeCnt+held != n || m.UsedPages() != held {
		t.Fatalf("after %s: %d free + %d held != %d pages (UsedPages %d)", op, fl.freeCnt, held, n, m.UsedPages())
	}
	if m.MetadataBytes() != meta {
		t.Fatalf("after %s: MetadataBytes %d, tables hold %d", op, m.MetadataBytes(), meta)
	}
}

// checkTotals requires every registered sequence's token total to equal
// the sum of its heads' counts, and every spare record's to be zero.
func checkTotals(t *testing.T, m *Manager, op string) {
	t.Helper()
	for id, sc := range m.seqs {
		sum := 0
		for h := range sc.heads {
			sum += sc.Head(h).TotalTokens()
		}
		if sc.total != sum {
			t.Fatalf("after %s: seq %d keeps a token total of %d, its heads hold %d", op, id, sc.total, sum)
		}
	}
	for i, sc := range m.spare {
		if sc.total != 0 {
			t.Fatalf("after %s: spare record %d keeps a token total of %d", op, i, sc.total)
		}
	}
}

// genStep runs one generation step of m over ids with the given demands:
// (*Manager).GenCompact, or the same step through a GenSource.
type genStep func(m *Manager, ids []int, demands [][]GenDemand) (CompactStats, error)

// churn drives m through steps random add / prompt / gen / adopt / release
// calls, calls that fail included, and runs check after each; a sequence
// added at step s gets headsAt(s) heads, and gen runs each generation
// step. It then releases every sequence and requires the whole pool free.
// At least one call must fail and at least one succeed.
func churn(t *testing.T, m *Manager, rng *mathx.RNG, steps int, headsAt func(step int) int, gen genStep, check func(op string)) {
	t.Helper()
	maxSeqLen := m.Config().MaxSeqLen
	var fresh, live []int // registered and not yet prompted; prompted
	nextID := 1
	pick := func(ids []int) (int, int) {
		if len(ids) == 0 {
			return -1, -1 // an unknown sequence: the call must fail
		}
		i := rng.Intn(len(ids))
		return i, ids[i]
	}
	drop := func(ids []int, i int) []int { return append(ids[:i], ids[i+1:]...) }
	failures := 0
	for step := 0; step < steps; step++ {
		// headsOf is a registered sequence's head count, or this step's for
		// an unknown one
		headsOf := func(id int) int {
			if sc, ok := m.seqs[id]; ok {
				return len(sc.heads)
			}
			return headsAt(step)
		}
		var op string
		var err error
		switch rng.Intn(10) {
		case 0, 1:
			op = "add"
			if _, err = m.AddSequence(nextID, headsAt(step)); err == nil {
				fresh = append(fresh, nextID)
			}
			nextID++
		case 2, 3:
			op = "prompt"
			// up to 1.25 × maxSeqLen; one call in eight asks a head for
			// more than the prompt
			i, id := pick(fresh)
			promptLen := 1 + rng.Intn(maxSeqLen*5/4)
			demands := make([]HeadDemand, headsOf(id))
			for h := range demands {
				hi := rng.Intn(promptLen + 1)
				demands[h] = HeadDemand{HiTokens: hi, LoTokens: rng.Intn(promptLen - hi + 1)}
			}
			if rng.Intn(8) == 0 {
				demands[rng.Intn(len(demands))].LoTokens += promptLen
			}
			if _, err = m.PromptCompact(id, promptLen, demands); err == nil {
				fresh, live = drop(fresh, i), append(live, id)
			}
		case 4, 5, 6:
			op = "gen"
			// every live sequence grows; large deltas run out of pages or slots
			demands := make([][]GenDemand, len(live))
			for i := range demands {
				demands[i] = make([]GenDemand, headsOf(live[i]))
				for h := range demands[i] {
					demands[i][h] = GenDemand{HiDelta: rng.Intn(3) * rng.Intn(40), LoDelta: rng.Intn(2)}
				}
			}
			_, err = gen(m, live, demands)
		case 7:
			op = "adopt"
			// swap out and back in under a new ID; sometimes inflated past the pool
			i, id := pick(live)
			counts, herr := m.HeadCounts(id, nil)
			if herr != nil {
				err = herr
				break
			}
			if err = m.ReleaseSequence(id); err != nil {
				t.Fatal(err)
			}
			live = drop(live, i)
			if rng.Intn(3) == 0 {
				counts[rng.Intn(len(counts))].LoTokens += rng.Intn(40) * 68
			}
			if err = m.AdoptCounts(nextID, counts); err == nil {
				live = append(live, nextID)
			}
			nextID++
		case 8:
			op = "release"
			if i, id := pick(live); i >= 0 {
				live = drop(live, i)
				err = m.ReleaseSequence(id)
			} else if i, id := pick(fresh); i >= 0 {
				fresh = drop(fresh, i)
				err = m.ReleaseSequence(id)
			}
		case 9:
			op = "duplicate add"
			if i, id := pick(live); i >= 0 {
				_, err = m.AddSequence(id, headsAt(step))
			} else {
				err = m.ReleaseSequence(id)
			}
		}
		if err != nil {
			failures++
		}
		check(op)
	}
	if failures == 0 || failures == steps {
		t.Fatalf("%d of %d calls failed; the mix should have both outcomes", failures, steps)
	}
	for _, id := range append(fresh, live...) {
		if err := m.ReleaseSequence(id); err != nil {
			t.Fatal(err)
		}
	}
	check("final release")
	if m.FreePages() != m.Config().NumPages {
		t.Fatalf("%d of %d pages free after releasing everything", m.FreePages(), m.Config().NumPages)
	}
}

// Property: under any interleaving of add / prompt / gen / adopt / release,
// calls that fail included, ring ∪ tables stays a permutation of
// [0, NumPages).
func TestManagerConservationProperty(t *testing.T) {
	const heads, numPages, maxSeqLen = 4, 96, 300 // 9-slot tables, a pool a few prompts fill
	for seed := uint64(1); seed <= 20; seed++ {
		m := compactManager(t, numPages, maxSeqLen)
		churn(t, m, mathx.NewRNG(seed), 400, func(int) int { return heads }, (*Manager).GenCompact,
			func(op string) { checkConservation(t, m, fmt.Sprintf("%s (seed %d)", op, seed)) })
	}
}

// A released sequence's whole record (its HeadCache slab and page-table
// block) goes to the next sequence of the same head count, without a fill.
// Sequences of 4, then 8, then 4 heads again churn through one manager, so
// each phase finds spare records of the other head count it must pass
// over. After every call checkConservation requires each registered record
// to have its sequence's shape, every entry no page holds to be -1 and
// every spare record to be empty, so a reused record starts empty; the
// test counts the reuses by head count.
func TestBlockReuseProperty(t *testing.T) {
	const numPages, maxSeqLen, steps = 96, 300, 600
	for seed := uint64(1); seed <= 10; seed++ {
		m := compactManager(t, numPages, maxSeqLen)
		spare := map[*SeqCache]bool{} // the spare records before the call
		reused := map[int]int{}       // reuses by head count
		churn(t, m, mathx.NewRNG(seed), steps, func(step int) int { return []int{4, 8, 4}[3*step/steps] }, (*Manager).GenCompact,
			func(op string) {
				checkConservation(t, m, fmt.Sprintf("%s (seed %d)", op, seed))
				for _, sc := range m.seqs {
					if spare[sc] {
						reused[len(sc.heads)]++
					}
				}
				clear(spare)
				for _, sc := range m.spare {
					spare[sc] = true
				}
			})
		if reused[4] == 0 || reused[8] == 0 {
			t.Fatalf("seed %d: records reused %d times at 4 heads and %d at 8; both head counts should be", seed, reused[4], reused[8])
		}
	}
}

// Steady-state canaries, in the style of the attention scratch pins: once
// the scratch has grown, compaction allocates nothing, and neither does
// AddSequence when a released sequence of the same head count left its
// record. A sequence of a head count no released record has costs three
// allocations whatever its head count: the view, the HeadCache slab and
// the page-table block.
func TestCompactionAllocs(t *testing.T) {
	const heads, seqs, promptLen, runs = 64, 8, 500, 50
	m := compactManager(t, 1<<16, 8192)
	rng := mathx.NewRNG(5)
	prompt := make([]HeadDemand, heads)
	for h := range prompt {
		hi := rng.Intn(promptLen)
		prompt[h] = HeadDemand{HiTokens: hi, LoTokens: rng.Intn(promptLen - hi)}
	}
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	// each closure walks IDs 1..runs+1 (AllocsPerRun adds a warm-up call);
	// the first round grows the scratch and the sequence map and leaves
	// runs+1 spare records, the second is measured
	var addAllocs, promptAllocs, releaseAllocs float64
	for round := 0; round < 2; round++ {
		id := 0
		addAllocs = testing.AllocsPerRun(runs, func() {
			id++
			_, e := m.AddSequence(id, heads)
			keep(e)
		})
		id = 0
		promptAllocs = testing.AllocsPerRun(runs, func() {
			id++
			_, e := m.PromptCompact(id, promptLen, prompt)
			keep(e)
		})
		id = 0
		releaseAllocs = testing.AllocsPerRun(runs, func() {
			id++
			keep(m.ReleaseSequence(id))
		})
	}
	// no spare record has heads+1 heads: each add builds a fresh one
	id := 1000
	freshAllocs := testing.AllocsPerRun(runs, func() {
		id++
		_, e := m.AddSequence(id, heads+1)
		keep(e)
	})
	if err != nil {
		t.Fatal(err)
	}
	if addAllocs != 0 {
		t.Errorf("AddSequence after a same-shape release: %v allocs, want 0", addAllocs)
	}
	if freshAllocs > 3 {
		t.Errorf("AddSequence of a fresh shape: %v allocs, want <= 3", freshAllocs)
	}
	if promptAllocs != 0 {
		t.Errorf("PromptCompact: %v allocs, want 0", promptAllocs)
	}
	if releaseAllocs != 0 {
		t.Errorf("ReleaseSequence: %v allocs, want 0", releaseAllocs)
	}
	for i := 1001; i <= id; i++ {
		keep(m.ReleaseSequence(i))
	}

	ids := make([]int, seqs)
	demands := make([][]GenDemand, seqs)
	for i := range ids {
		ids[i] = i + 1
		if _, err := m.AddSequence(ids[i], heads); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PromptCompact(ids[i], promptLen, prompt); err != nil {
			t.Fatal(err)
		}
		demands[i] = make([]GenDemand, heads)
		for h := range demands[i] {
			demands[i][h] = GenDemand{HiDelta: 1, LoDelta: h % 2} // pages fill and new ones are taken
		}
	}
	pages := 0
	genAllocs := testing.AllocsPerRun(200, func() {
		cs, e := m.GenCompact(ids, demands)
		keep(e)
		pages += cs.PagesAllocated
	})
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 {
		t.Fatal("the generation loop never took a page")
	}
	if genAllocs != 0 {
		t.Errorf("GenCompact: %v allocs, want 0", genAllocs)
	}
}

// A counts-only manager holds no page pool: a million-page manager
// allocates its free ring of 4 bytes per page and little else.
func TestCountsOnlyManagerAllocs(t *testing.T) {
	const numPages = 1 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := compactManager(t, numPages, 8192)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("NewManager of %d pages allocated %d bytes, want < 8 MiB", numPages, got)
	}
	if m.pool != nil || m.FreePages() != numPages {
		t.Fatalf("pool %v, %d pages free", m.pool != nil, m.FreePages())
	}
}

// take and give hand out and accept page IDs in exactly the order repeated
// Alloc and Recycle would, across the wrap.
func TestTakeGiveMatchSingleOps(t *testing.T) {
	const n = 11
	batch, single := NewFreeList(n), NewFreeList(n)
	rng := mathx.NewRNG(17)
	var heldBatch, heldSingle []int32 // outstanding IDs, oldest first
	wrapped := false
	for step := 0; step < 500; step++ {
		if rng.Intn(2) == 0 {
			k := rng.Intn(n + 2) // sometimes more than is free
			before := *batch
			buf := make([]int32, k)
			if err := batch.take(k, buf); err != nil {
				if k <= single.Free() {
					t.Fatalf("step %d: take(%d) failed with %d free", step, k, single.Free())
				}
				if batch.start != before.start || batch.freeCnt != before.freeCnt {
					t.Fatalf("step %d: failed take moved the ring", step)
				}
				continue
			}
			wrapped = wrapped || before.start+k > n
			heldBatch = append(heldBatch, buf...)
			for i := 0; i < k; i++ {
				id, err := single.Alloc()
				if err != nil {
					t.Fatalf("step %d: take(%d) succeeded where Alloc fails: %v", step, k, err)
				}
				heldSingle = append(heldSingle, id)
			}
		} else {
			k := rng.Intn(len(heldBatch) + 1)
			batch.give(heldBatch[:k])
			for _, id := range heldSingle[:k] {
				single.Recycle(id)
			}
			heldBatch, heldSingle = heldBatch[k:], heldSingle[k:]
		}
		if !reflect.DeepEqual(heldBatch, heldSingle) {
			t.Fatalf("step %d: take handed out %v, Alloc %v", step, heldBatch, heldSingle)
		}
		if batch.start != single.start || batch.freeCnt != single.freeCnt || !reflect.DeepEqual(batch.ring, single.ring) {
			t.Fatalf("step %d: rings differ: take/give %+v, single ops %+v", step, *batch, *single)
		}
	}
	if !wrapped {
		t.Fatal("no take crossed the wrap")
	}
}

// A GenCompact call that names a sequence twice is refused before anything
// moves, and the stamps it left do not refuse the next call.
func TestGenCompactRejectsRepeatedID(t *testing.T) {
	const capHi = 37
	m := compactManager(t, 64, 4096)
	for id := 1; id <= 3; id++ {
		if _, err := m.AddSequence(id, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PromptCompact(id, capHi, []HeadDemand{{HiTokens: capHi}, {HiTokens: capHi}}); err != nil {
			t.Fatal(err)
		}
	}
	grow := func() []GenDemand { return []GenDemand{{HiDelta: 1}, {HiDelta: 1, LoDelta: 1}} } // every head takes a page
	before := captureState(m)
	_, err := m.GenCompact([]int{1, 2, 1}, [][]GenDemand{grow(), grow(), grow()})
	if err == nil || err.Error() != "kvcache: sequence 1 repeated in one generation step" {
		t.Fatalf("repeated ID: error %v", err)
	}
	if after := captureState(m); !reflect.DeepEqual(before, after) {
		t.Fatalf("refused call changed the manager:\nbefore %+v\nafter  %+v", before, after)
	}
	cs, err := m.GenCompact([]int{1, 2, 3}, [][]GenDemand{grow(), grow(), grow()})
	if err != nil || cs.PagesAllocated != 9 {
		t.Fatalf("next call: %+v, %v; want 9 pages", cs, err)
	}
	checkConservation(t, m, "gen after a refused repeat")
}

// The fanned-out GenCompact is bit-identical to planning every sequence
// on its own, whatever GOMAXPROCS is: decode_heavy's shape (96 sequences ×
// 256 heads, several chunks), a script of grows with evictions, an
// out-of-pages call, a table overflow in the last sequence — so in the
// last chunk — a repeated ID, and partial batches on both sides of the
// fan-out threshold. Not skipped under -short, so the race detector runs
// the fan-out.
func TestGenCompactFanOutBitIdentical(t *testing.T) {
	const seqs, heads, capHi, slots = 96, 256, 37, 20
	if 50*heads < parallelHeads || 8*heads >= parallelHeads || 50*heads <= genChunkHeads {
		t.Fatal("the partial batches of 50 and 8 sequences do not sit on both sides of the fan-out")
	}
	type call struct {
		ids     []int
		demands [][]GenDemand
		fails   string // the error the call must return, "" for none
	}
	all := make([]int, seqs)
	for i := range all {
		all[i] = i + 1
	}
	rng := mathx.NewRNG(35)
	demandsFor := func(n int, big int) [][]GenDemand {
		ds := make([][]GenDemand, n)
		for i := range ds {
			ds[i] = make([]GenDemand, heads)
			for h := range ds[i] {
				d := GenDemand{HiDelta: rng.Intn(2), LoDelta: rng.Intn(2)}
				if rng.Intn(16) == 0 {
					d.HiDelta += rng.Intn(big + 1) // crosses page boundaries
				}
				ds[i][h] = d
			}
		}
		return ds
	}
	var script []call
	for step := 0; step < 4; step++ {
		script = append(script, call{ids: all, demands: demandsFor(seqs, 2*capHi)})
	}
	// every head asks for four pages: more than the pool holds
	hungry := demandsFor(seqs, 0)
	for i := range hungry {
		for h := range hungry[i] {
			hungry[i][h].HiDelta += 4 * capHi
		}
	}
	script = append(script, call{ids: all, demands: hungry, fails: "kvcache: out of pages"})
	overflow := demandsFor(seqs, 2*capHi)
	overflow[seqs-1][heads-1].HiDelta = slots * capHi
	script = append(script, call{ids: all, demands: overflow,
		fails: fmt.Sprintf("kvcache: seq %d head %d: kvcache: bidirectional table overflow (%d slots)", seqs, heads-1, slots)})
	repeat := append([]int(nil), all...)
	repeat[70] = repeat[20]
	script = append(script, call{ids: repeat, demands: demandsFor(seqs, capHi),
		fails: fmt.Sprintf("kvcache: sequence %d repeated in one generation step", repeat[20])})
	script = append(script,
		call{ids: all[20:70], demands: demandsFor(50, 2*capHi)}, // fanned out
		call{ids: all[5:13], demands: demandsFor(8, 2*capHi)},   // serial
		call{ids: all, demands: demandsFor(seqs, 2*capHi)})

	// setup prompt-compacts every sequence to the same shape in each run
	prompt := make([]HeadDemand, heads)
	for h := range prompt {
		prompt[h] = HeadDemand{HiTokens: 40 + rng.Intn(120), LoTokens: rng.Intn(150)}
	}
	setup := func() *Manager {
		m := compactManager(t, seqs*heads*9, slots*capHi)
		for _, id := range all {
			if _, err := m.AddSequence(id, heads); err != nil {
				t.Fatal(err)
			}
			if _, err := m.PromptCompact(id, 320, prompt); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	errs := map[int]string{} // the failed steps' error text under the first GOMAXPROCS
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			// ref takes each successful call as one call per sequence, in
			// batch order, every one under the fan-out threshold
			m, ref := setup(), setup()
			pages := 0
			for step, c := range script {
				if c.fails != "" {
					before := captureState(m)
					cs, err := m.GenCompact(c.ids, c.demands)
					if err == nil || !strings.HasPrefix(err.Error(), c.fails) {
						t.Fatalf("step %d: error %v, want %q", step, err, c.fails)
					}
					if first, ok := errs[step]; ok && err.Error() != first {
						t.Fatalf("step %d: error %q, under GOMAXPROCS 1 %q", step, err, first)
					}
					errs[step] = err.Error()
					if !reflect.DeepEqual(captureState(m), before) || cs != (CompactStats{}) {
						t.Fatalf("step %d: the failed call moved something (stats %+v)", step, cs)
					}
					continue
				}
				cs, err := m.GenCompact(c.ids, c.demands)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				var want CompactStats
				for i, id := range c.ids {
					one, err := ref.GenCompact([]int{id}, c.demands[i:i+1])
					if err != nil {
						t.Fatal(err)
					}
					want.Add(one)
				}
				if cs != want {
					t.Fatalf("step %d: stats %+v, per-sequence calls %+v", step, cs, want)
				}
				if !reflect.DeepEqual(captureState(m), captureState(ref)) {
					t.Fatalf("step %d: pages, tables or counts differ from per-sequence calls", step)
				}
				pages += cs.PagesAllocated
			}
			if pages == 0 {
				t.Fatal("the script never took a page")
			}
			checkConservation(t, m, "the script")
		})
	}
}

// At the fan-out's shape a call allocates only the plan closure it hands
// mathx.ForEach and ForEach's own state: 1 at GOMAXPROCS 1, where ForEach
// plans the chunks inline, and 2 at GOMAXPROCS 2 once a helper is warm
// (the closure and ForEach's shared state). The warm-up call starts the
// helper, whose goroutine closure is the one more allocation a cold call
// makes; back-to-back calls find it lingering and start none. On a
// one-CPU host no helper lingers and every call starts one. The chunk
// scratch is reused.
func TestGenCompactFanOutAllocs(t *testing.T) {
	const seqs, heads, promptLen = 48, 256, 500
	m := compactManager(t, 1<<18, 8192)
	ids := make([]int, seqs)
	demands := make([][]GenDemand, seqs)
	prompt := make([]HeadDemand, heads)
	for h := range prompt {
		prompt[h] = HeadDemand{HiTokens: 100 + h%100, LoTokens: 200}
	}
	for i := range ids {
		ids[i] = i + 1
		if _, err := m.AddSequence(ids[i], heads); err != nil {
			t.Fatal(err)
		}
		if _, err := m.PromptCompact(ids[i], promptLen, prompt); err != nil {
			t.Fatal(err)
		}
		demands[i] = make([]GenDemand, heads)
		for h := range demands[i] {
			// one head in eight grows and takes a page now and then; the
			// rest hold still
			if h%8 == 0 {
				demands[i][h] = GenDemand{HiDelta: 1}
			}
		}
	}
	if seqs*heads < parallelHeads {
		t.Fatal("the batch does not reach the fan-out")
	}
	var err error
	pages := 0
	gen := func() {
		cs, e := m.GenCompact(ids, demands)
		if e != nil && err == nil {
			err = e
		}
		pages += cs.PagesAllocated
	}
	warm := 2
	if runtime.NumCPU() < 2 {
		warm = 3
	}
	for _, tc := range []struct{ procs, want int }{{1, 1}, {2, warm}} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			const runs = 200
			gen() // warm up the scratch and, from GOMAXPROCS 2, a helper
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				gen()
			}
			runtime.ReadMemStats(&after)
			if got := int(after.Mallocs-before.Mallocs) / runs; got != tc.want {
				t.Errorf("GOMAXPROCS %d: %d allocs per GenCompact, want %d", tc.procs, got, tc.want)
			}
		}()
	}
	if err != nil {
		t.Fatal(err)
	}
	if pages == 0 {
		t.Fatal("the loop never took a page")
	}
}

// drawSource serves a generation step's draws as a GenSource — each
// sequence's stream and its heads' thresholds, made from tier fractions —
// and counts the calls for each sequence. It answers false, writing
// nothing, for an idle sequence, and counts those calls in skips too. A
// sequence belongs to one chunk, so concurrent calls never touch the same
// count.
type drawSource struct {
	r            []mathx.RNG
	hiF, loF     [][]float64
	thr          [][]TierThresholds
	idle         []bool
	calls, skips []int
}

func newDrawSource(r []mathx.RNG, hiF, loF [][]float64, idle []bool) *drawSource {
	s := &drawSource{r: r, hiF: hiF, loF: loF, idle: idle, calls: make([]int, len(r)), skips: make([]int, len(r))}
	for i := range hiF {
		s.thr = append(s.thr, make([]TierThresholds, len(hiF[i])))
		for h := range hiF[i] {
			s.thr[i][h] = NewTierThresholds(hiF[i][h], loF[i][h])
		}
	}
	return s
}

func (s *drawSource) DrawHeads() int {
	n := 0
	for i, thr := range s.thr {
		if !s.idle[i] {
			n += len(thr)
		}
	}
	return n
}

func (s *drawSource) GenDraws(i int) (mathx.RNG, []TierThresholds, bool) {
	s.calls[i]++
	if s.idle[i] {
		s.skips[i]++
		return mathx.RNG{}, nil, false
	}
	return s.r[i], s.thr[i], true
}

// floatFill is the source's step as demands, placed by the float tier
// test the serving store made before thresholds replaced it: head h's
// candidate lands in the high tier when u < hiF, else in the low tier
// when u < hiF+loF, with u = Float64At(h) of its sequence's stream. An
// idle sequence demands nothing.
func (s *drawSource) floatFill() [][]GenDemand {
	ds := make([][]GenDemand, len(s.r))
	for i := range ds {
		ds[i] = make([]GenDemand, len(s.hiF[i]))
		if s.idle[i] {
			continue
		}
		for h := range ds[i] {
			u := s.r[i].Float64At(uint64(h))
			hi, lo := 0, 0
			if u < s.hiF[i][h] {
				hi = 1
			}
			if u < s.hiF[i][h]+s.loF[i][h] {
				lo = 1
			}
			ds[i][h] = GenDemand{HiDelta: hi, LoDelta: lo &^ hi}
		}
	}
	return ds
}

// forcedSource serves demands of at most one token per head as draws:
// fractions of 1 and 0 place every draw in the tier the demand names. It
// reports ok false for a demand outside that set, and idles a sequence
// whose every demand is zero.
func forcedSource(demands [][]GenDemand) (*drawSource, bool) {
	n := len(demands)
	r, hiF, loF, idle := make([]mathx.RNG, n), make([][]float64, n), make([][]float64, n), make([]bool, n)
	for i, ds := range demands {
		hiF[i], loF[i] = make([]float64, len(ds)), make([]float64, len(ds))
		idle[i] = true
		for h, d := range ds {
			switch d {
			case GenDemand{HiDelta: 1}:
				hiF[i][h] = 1
			case GenDemand{LoDelta: 1}:
				loF[i][h] = 1
			case GenDemand{}:
				continue
			default:
				return nil, false
			}
			idle[i] = false
		}
	}
	return newDrawSource(r, hiF, loF, idle), true
}

// randomDraws is one generation step's draws for sequences of the given
// head counts, from rng: each sequence idles with probability 1/3 and
// otherwise reads its own stream, and each head's fractions are the
// serving store's clamped mix, its all-low state, or the extremes 0 and
// 1. With idleDraws an idle sequence still answers its draws, every
// fraction 0, so that it is walked and draws nothing.
func randomDraws(rng *mathx.RNG, heads []int, idleDraws bool) *drawSource {
	n := len(heads)
	r, hiF, loF, idle := make([]mathx.RNG, n), make([][]float64, n), make([][]float64, n), make([]bool, n)
	for i, nh := range heads {
		r[i] = *mathx.NewRNG(rng.Uint64())
		hiF[i], loF[i] = make([]float64, nh), make([]float64, nh)
		idle[i] = rng.Intn(3) == 0
		for h := range nh {
			switch rng.Intn(8) {
			case 0:
			case 1:
				hiF[i][h] = 1
			case 2:
				loF[i][h] = 1
			case 3: // all-low
				loF[i][h] = mathx.Clamp(0.4*rng.LogNorm(0, 0.3), 0, 0.9)
			default:
				hiF[i][h] = mathx.Clamp(0.3*rng.LogNorm(0, 0.3), 0.02, 0.9)
				loF[i][h] = mathx.Clamp(0.4*rng.LogNorm(0, 0.3), 0, 0.9-hiF[i][h])
			}
			if idle[i] {
				hiF[i][h], loF[i][h] = 0, 0
			}
		}
	}
	if idleDraws {
		idle = make([]bool, n)
	}
	return newDrawSource(r, hiF, loF, idle)
}

// setParallelHeads sets the fan-out threshold to at until t ends.
func setParallelHeads(t *testing.T, at int) {
	old := parallelHeads
	parallelHeads = at
	t.Cleanup(func() { parallelHeads = old })
}

// fanOutBounds are the two thresholds that put every generation step on
// one path: fanned out on mathx.ForEach, or on the calling goroutine.
var fanOutBounds = []struct {
	name string
	at   int
}{{"all", 0}, {"none", math.MaxInt}}

// Property: whether a generation step's demands come as slices placed by
// the float tier test (GenCompact), as draws from a source (GenCompactFrom)
// or from a source that answers false for a sequence that draws nothing,
// and whether every step fans out or none does, the churn driver's run is
// the same: the same page IDs per head, token counts and free ring after
// every call, the same CompactStats and the same errors from every
// generation step. Sequences of 3, 4 and 8 heads interleave, and one
// sequence in three of each step draws nothing; the step's draws ignore
// the driver's demands and come from a stream of their own.
func TestGenSourceMatchesGenCompact(t *testing.T) {
	const numPages, maxSeqLen, steps = 96, 300, 400
	type record struct {
		states []managerState
		stats  []CompactStats
		errs   []string
	}
	sources := []string{"slices", "source", "skipping source"}
	run := func(t *testing.T, seed uint64, source string) (rec record, skips int) {
		draws := mathx.NewRNG(seed + 1000)
		gen := func(m *Manager, ids []int, _ [][]GenDemand) (CompactStats, error) {
			heads := make([]int, len(ids))
			for i, id := range ids {
				heads[i] = len(m.seqs[id].heads)
			}
			src := randomDraws(draws, heads, source == "source")
			var cs CompactStats
			var err error
			if source == "slices" {
				cs, err = m.GenCompact(ids, src.floatFill())
			} else {
				cs, err = m.GenCompactFrom(ids, src)
				for _, n := range src.skips {
					skips += n
				}
			}
			rec.stats = append(rec.stats, cs)
			rec.errs = append(rec.errs, fmt.Sprint(err))
			return cs, err
		}
		m := compactManager(t, numPages, maxSeqLen)
		churn(t, m, mathx.NewRNG(seed), steps, func(step int) int { return []int{3, 4, 8}[step%3] }, gen,
			func(op string) {
				checkTotals(t, m, op)
				rec.states = append(rec.states, captureState(m))
			})
		return rec, skips
	}
	for seed := uint64(1); seed <= 10; seed++ {
		var want record
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, bound := range fanOutBounds {
				setParallelHeads(t, bound.at)
				for _, source := range sources {
					got, skips := run(t, seed, source)
					if source == "skipping source" && skips == 0 {
						t.Fatalf("fanout=%s: the skipping source never skipped a sequence", bound.name)
					}
					if want.states == nil {
						want = got // GenCompact with every step fanned out
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("fanout=%s, %s: the run differs from GenCompact's with every step fanned out", bound.name, source)
					}
				}
			}
			pages := 0
			for _, cs := range want.stats {
				pages += cs.PagesAllocated
			}
			if pages == 0 {
				t.Fatal("the run's generation steps never took a page")
			}
		})
	}
}

// A generation step that fails on a short pool or on a table overflow asks
// the source again for the draws of every sequence whose counts it
// committed, and leaves every count, table and FreePages as they were.
// Twelve sequences of 256 heads make two chunks when fanned out, [0, 8)
// and [8, 12), so an overflow in sequence 2 leaves the second chunk
// planned in full; planned serially, the walk stops at sequence 2. Every
// head holds one full page, except sequence 2's head 5, whose table is
// full; it draws a token only in the overflow case. Sequences 1, 4 and 9
// draw nothing, and the source answers false for them: one before the
// overflow, one after it in its chunk and one in the next chunk. The undo
// asks about them too and subtracts nothing.
func TestGenSourceUndo(t *testing.T) {
	const seqs, heads, capHi, slots = 12, 256, 37, 4
	if 8*heads != genChunkHeads {
		t.Fatal("the chunks are not [0, 8) and [8, 12)")
	}
	idle := []int{1, 4, 9}
	grow := func(delta int) [][]GenDemand {
		ds := make([][]GenDemand, seqs)
		for i := range ds {
			ds[i] = make([]GenDemand, heads)
			if slices.Contains(idle, i) {
				continue
			}
			for h := range ds[i] {
				ds[i][h] = GenDemand{HiDelta: delta}
			}
		}
		return ds
	}
	shortPool := grow(1)
	shortPool[2][5] = GenDemand{}
	ids := make([]int, seqs)
	for i := range ids {
		ids[i] = i + 1
	}
	cases := []struct {
		name     string
		numPages int // every head holds one full page after setup, one head four
		demands  [][]GenDemand
		fails    string
		calls    map[string][]int // by bound: the source's calls per sequence
	}{
		{"short pool", seqs*heads + 1000, shortPool, "kvcache: out of pages", map[string][]int{
			"all":  {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			"none": {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		}},
		{"table overflow", 4 * seqs * heads, grow(1), "kvcache: seq 3 head 5: kvcache: bidirectional table overflow", map[string][]int{
			"all":  {2, 2, 2, 0, 0, 0, 0, 0, 2, 2, 2, 2},
			"none": {2, 2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		}},
	}
	for _, tc := range cases {
		for _, bound := range fanOutBounds {
			t.Run(tc.name+"/fanout="+bound.name, func(t *testing.T) {
				setParallelHeads(t, bound.at)
				m := compactManager(t, tc.numPages, slots*capHi)
				for i, id := range ids {
					prompt := make([]HeadDemand, heads)
					for h := range prompt {
						prompt[h] = HeadDemand{HiTokens: capHi}
					}
					promptLen := capHi
					if i == 2 {
						prompt[5].HiTokens, promptLen = slots*capHi, slots*capHi
					}
					if _, err := m.AddSequence(id, heads); err != nil {
						t.Fatal(err)
					}
					if _, err := m.PromptCompact(id, promptLen, prompt); err != nil {
						t.Fatal(err)
					}
				}
				before, free := captureState(m), m.FreePages()
				src, ok := forcedSource(tc.demands)
				if !ok {
					t.Fatal("the demands are not draws")
				}
				cs, err := m.GenCompactFrom(ids, src)
				if err == nil || !strings.HasPrefix(err.Error(), tc.fails) {
					t.Fatalf("error %v, want %q", err, tc.fails)
				}
				if !reflect.DeepEqual(captureState(m), before) || m.FreePages() != free || cs != (CompactStats{}) {
					t.Fatalf("the failed call moved something (stats %+v, %d free, was %d)", cs, m.FreePages(), free)
				}
				checkTotals(t, m, "a failed step")
				want := tc.calls[bound.name]
				if !reflect.DeepEqual(src.calls, want) {
					t.Fatalf("source calls per sequence %v, want %v", src.calls, want)
				}
				wantSkips := make([]int, seqs)
				for _, i := range idle {
					wantSkips[i] = want[i]
				}
				if !reflect.DeepEqual(src.skips, wantSkips) {
					t.Fatalf("source skips per sequence %v, want %v", src.skips, wantSkips)
				}
				idleAll, _ := forcedSource(grow(0))
				cs, err = m.GenCompactFrom(ids, idleAll)
				if err != nil || cs.PagesAllocated != 0 || cs.Regions != seqs*heads || cs.TokenOps != (seqs*heads+slots-1)*capHi {
					t.Fatalf("next call: %+v, %v", cs, err)
				}
				checkConservation(t, m, "a step after a failed one")
			})
		}
	}
}

// Property: a sequence's token total, which prices a sequence that draws
// nothing in O(1), equals the sum of its heads' counts after every call of
// the churn driver — prompts, adoptions, releases and the records they
// leave for reuse, and generation steps that alternate the driver's
// multi-token demands (GenCompact) with a source's draws, whose short
// pools and table overflows undo what they committed — at both fan-out
// bounds; and after every token a materialized head appends, removes or
// downgrades.
func TestSeqTokenTotalMatchesHeads(t *testing.T) {
	const numPages, maxSeqLen, steps = 96, 300, 400
	for _, bound := range fanOutBounds {
		t.Run("fanout="+bound.name, func(t *testing.T) {
			setParallelHeads(t, bound.at)
			failed, ops := map[string]int{}, map[string]int{}
			for seed := uint64(1); seed <= 5; seed++ {
				draws, n := mathx.NewRNG(seed+2000), 0
				gen := func(m *Manager, ids []int, demands [][]GenDemand) (CompactStats, error) {
					n++
					kind, cs, err := "demands", CompactStats{}, error(nil)
					if n%2 == 0 {
						heads := make([]int, len(ids))
						for i, id := range ids {
							heads[i] = len(m.seqs[id].heads)
						}
						kind = "draws"
						cs, err = m.GenCompactFrom(ids, randomDraws(draws, heads, false))
					} else {
						cs, err = m.GenCompact(ids, demands)
					}
					if err != nil {
						failed[kind]++
					}
					return cs, err
				}
				m := compactManager(t, numPages, maxSeqLen)
				churn(t, m, mathx.NewRNG(seed), steps, func(step int) int { return []int{3, 4, 8}[step%3] }, gen,
					func(op string) {
						ops[op]++
						checkTotals(t, m, fmt.Sprintf("%s (seed %d)", op, seed))
					})
			}
			if failed["demands"] == 0 || ops["adopt"] == 0 || ops["release"] == 0 {
				t.Fatalf("failed steps %v, calls %v: want failed steps, adoptions and releases", failed, ops)
			}
		})
	}
	m := testManager(t, true, 64)
	sc, err := m.AddSequence(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(7)
	k, v := make([]float32, 128), make([]float32, 128)
	for i := 0; i < 300; i++ {
		hc := sc.Head(rng.Intn(3))
		level := Level(rng.Intn(2))
		var op string
		switch rng.Intn(4) {
		case 0, 1:
			op = "append"
			rng.NormVec(k, 1)
			rng.NormVec(v, 1)
			err = hc.AppendToken(level, k, v, float32(rng.Float64()), int32(i))
		case 2:
			op = "remove"
			if ref, _, ok := hc.MinScore(level); ok {
				err = hc.RemoveToken(ref)
			}
		case 3:
			op = "downgrade"
			if ref, _, ok := hc.MinScore(LevelHi); ok {
				err = hc.Downgrade(ref, k, v)
			}
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		checkTotals(t, m, op)
	}
	if sc.total == 0 {
		t.Fatal("the materialized head kept no token")
	}
}
