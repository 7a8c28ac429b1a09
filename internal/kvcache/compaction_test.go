package kvcache

import (
	"reflect"
	"sort"
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
		for _, hc := range m.seqs[id].Heads {
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
				_, err := m.AdoptCounts(1, []HeadDemand{{HiTokens: capHi, LoTokens: capLo}, {HiTokens: capHi, LoTokens: capLo}})
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
				_, err := m.AdoptCounts(1, []HeadDemand{{HiTokens: capHi}, {HiTokens: 2 * capHi, LoTokens: 1}})
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
// together hold every page ID exactly once.
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
	fl := m.free
	for i := 0; i < fl.freeCnt; i++ {
		mark(fl.ring[(fl.start+i)%len(fl.ring)], "ring")
	}
	held, meta := 0, 0
	for _, sc := range m.seqs {
		for _, hc := range sc.Heads {
			for _, id := range sideIDs(&hc.table, LevelHi) {
				mark(id, "hi table")
			}
			for _, id := range sideIDs(&hc.table, LevelLo) {
				mark(id, "lo table")
			}
			held += hc.table.count(LevelHi) + hc.table.count(LevelLo)
			meta += hc.table.MetadataBytes()
		}
	}
	if fl.freeCnt+held != n || m.UsedPages() != held {
		t.Fatalf("after %s: %d free + %d held != %d pages (UsedPages %d)", op, fl.freeCnt, held, n, m.UsedPages())
	}
	if m.MetadataBytes() != meta {
		t.Fatalf("after %s: MetadataBytes %d, tables hold %d", op, m.MetadataBytes(), meta)
	}
}

// Property: under any interleaving of add / prompt / gen / adopt / release,
// calls that fail included, ring ∪ tables stays a permutation of
// [0, NumPages).
func TestManagerConservationProperty(t *testing.T) {
	const heads, numPages, maxSeqLen = 4, 96, 300 // 9-slot tables, a pool a few prompts fill
	for seed := uint64(1); seed <= 20; seed++ {
		rng := mathx.NewRNG(seed)
		m := compactManager(t, numPages, maxSeqLen)
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
		for step := 0; step < 400; step++ {
			var op string
			var err error
			switch rng.Intn(10) {
			case 0, 1:
				op = "add"
				if _, err = m.AddSequence(nextID, heads); err == nil {
					fresh = append(fresh, nextID)
				}
				nextID++
			case 2, 3:
				op = "prompt"
				// up to 1.25 × maxSeqLen; one call in eight asks a head for
				// more than the prompt
				i, id := pick(fresh)
				promptLen := 1 + rng.Intn(maxSeqLen*5/4)
				demands := make([]HeadDemand, heads)
				for h := range demands {
					hi := rng.Intn(promptLen + 1)
					demands[h] = HeadDemand{HiTokens: hi, LoTokens: rng.Intn(promptLen - hi + 1)}
				}
				if rng.Intn(8) == 0 {
					demands[rng.Intn(heads)].LoTokens += promptLen
				}
				if _, err = m.PromptCompact(id, promptLen, demands); err == nil {
					fresh, live = drop(fresh, i), append(live, id)
				}
			case 4, 5, 6:
				op = "gen"
				// every live sequence grows; large deltas run out of pages or slots
				demands := make([][]GenDemand, len(live))
				for i := range demands {
					demands[i] = make([]GenDemand, heads)
					for h := range demands[i] {
						d := GenDemand{HiDelta: rng.Intn(3) * rng.Intn(40), LoDelta: rng.Intn(2)}
						d.HiRemoved = min(d.HiDelta, rng.Intn(2)) // a victim leaves only when a candidate lands
						demands[i][h] = d
					}
				}
				_, err = m.GenCompact(live, demands)
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
					counts[rng.Intn(heads)].LoTokens += rng.Intn(40) * 68
				}
				if _, err = m.AdoptCounts(nextID, counts); err == nil {
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
					_, err = m.AddSequence(id, heads)
				} else {
					err = m.ReleaseSequence(id)
				}
			}
			if err != nil {
				failures++
			}
			checkConservation(t, m, op)
		}
		if failures == 0 || failures == 400 {
			t.Fatalf("seed %d: %d of 400 calls failed; the mix should have both outcomes", seed, failures)
		}
		for _, id := range append(fresh, live...) {
			if err := m.ReleaseSequence(id); err != nil {
				t.Fatal(err)
			}
		}
		checkConservation(t, m, "final release")
		if m.FreePages() != numPages {
			t.Fatalf("seed %d: %d of %d pages free after releasing everything", seed, m.FreePages(), numPages)
		}
	}
}

// Steady-state canaries, in the style of the attention scratch pins: once
// the scratch has grown, compaction allocates nothing, and a sequence costs
// four allocations whatever its head count.
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
	// the first round grows the scratch and the sequence map, the second is
	// measured
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
	if err != nil {
		t.Fatal(err)
	}
	if addAllocs > 4 {
		t.Errorf("AddSequence: %v allocs, want <= 4", addAllocs)
	}
	if promptAllocs != 0 {
		t.Errorf("PromptCompact: %v allocs, want 0", promptAllocs)
	}
	if releaseAllocs != 0 {
		t.Errorf("ReleaseSequence: %v allocs, want 0", releaseAllocs)
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
