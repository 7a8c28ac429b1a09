package kvcache

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"diffkv/internal/mathx"
)

// refGen is a generation step as a plain per-head walk, with no leaf loop
// and no hand-off: every head, in (sequence, head) order, computes each
// tier's shortfall by division, checks its table's room and commits its
// counts, and a head that needs pages is recorded. The pages are then
// taken as one run and attached in the same order. A failure restores
// every count the walk committed. It returns the recorded heads, which
// the plan walk must record alike.
func refGen(m *Manager, ids []int, demands [][]GenDemand) ([]genGrow, CompactStats, error) {
	var grows []genGrow
	var stats CompactStats
	type undo struct {
		hc     *HeadCache
		tokens [2]int
	}
	var undos []undo
	fail := func(err error) ([]genGrow, CompactStats, error) {
		for _, u := range undos {
			u.hc.setTokens(u.tokens[LevelHi], u.tokens[LevelLo])
		}
		return nil, CompactStats{}, err
	}
	for s, id := range ids {
		sc := m.seqs[id]
		for h := range sc.heads {
			hc, d := &sc.heads[h], demands[s][h]
			tokens := [2]int{hc.HiTokens() + d.HiDelta, hc.LoTokens() + d.LoDelta}
			hi := max(0, pagesNeeded(tokens[LevelHi], m.capHi)-hc.table.count(LevelHi))
			lo := max(0, pagesNeeded(tokens[LevelLo], m.capLo)-hc.table.count(LevelLo))
			if hi+lo > hc.table.room() {
				return fail(fmt.Errorf("kvcache: seq %d head %d: %w", id, h, tableOverflow(m.slots)))
			}
			stats.TokenOps += hc.TotalTokens()
			undos = append(undos, undo{hc, [2]int{hc.HiTokens(), hc.LoTokens()}})
			hc.setTokens(tokens[LevelHi], tokens[LevelLo])
			if hi+lo > 0 {
				grows = append(grows, genGrow{seq: int32(s), head: int32(h), hi: int32(hi), lo: int32(lo)})
				stats.PagesAllocated += hi + lo
			}
		}
		stats.Regions += len(sc.heads)
	}
	flat := make([]int32, stats.PagesAllocated)
	if err := m.free.take(len(flat), flat); err != nil {
		return fail(err)
	}
	for _, g := range grows {
		hc := &m.seqs[ids[g.seq]].heads[g.head]
		ids := flat[:g.hi+g.lo]
		m.attach(hc, LevelHi, ids[:g.hi])
		m.attach(hc, LevelLo, ids[g.hi:])
		flat = flat[len(ids):]
	}
	return grows, stats, nil
}

// plannedGrows returns the heads m's last generation step recorded as
// needing pages, in (sequence, head) order. clearGrows must have run
// before the step, so a chunk the step did not use contributes nothing.
func plannedGrows(m *Manager) []genGrow {
	var grows []genGrow
	for c := range m.chunks {
		grows = append(grows, m.chunks[c].grows...)
	}
	return grows
}

func clearGrows(m *Manager) {
	for c := range m.chunks {
		m.chunks[c].grows = m.chunks[c].grows[:0]
	}
}

// headCounts is every sequence's HeadCounts, in ID order.
func headCounts(t *testing.T, m *Manager, ids []int) [][]HeadDemand {
	t.Helper()
	out := make([][]HeadDemand, len(ids))
	for i, id := range ids {
		hd, err := m.HeadCounts(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = hd
	}
	return out
}

// slack is the tokens a tier of hc takes before it needs a page.
func slack(m *Manager, hc *HeadCache, level Level) int {
	_, perPage := m.tier(level)
	return hc.table.count(level)*perPage - hc.tokens[level]
}

// The plan walk — its leaf loop, handing off to the per-head plan at
// each head that needs a page and resuming after it — gives what the
// plain per-head walk gives: the same error, CompactStats, recorded heads,
// HeadCounts, page-table IDs and free ring after every step, through
// GenCompact and through GenCompactFrom (whose source answers false for a
// sequence that draws nothing), whether the step fans out or not. The
// script puts the pages where the hand-off must find them: at the first
// head, the last, two consecutive heads and every head, after counts that
// land exactly on pages·perPage, with negative and multi-page deltas, and
// through a table overflow in the middle of a sequence, whose undo must
// restore every count; random steps follow. GenCompactFrom walks the draw
// leaf on the steps a source's draws can make (first head, last head,
// two consecutive heads, every head, one token each) and GenCompact's
// given-demand leaf on the others.
func TestGenHandOffMatchesReference(t *testing.T) {
	const seqs, heads, maxSeqLen = 4, 6, 20 * 37 // 20 table slots per head
	type step struct {
		name   string
		demand func(m *Manager, s, h int, hc *HeadCache) GenDemand
		check  func(grows []genGrow) bool // what a successful step's recorded heads must show
		fails  string                     // the error's prefix, "" for none
		random bool                       // the step may fail or not, and shows anything
	}
	// over asks for one page more than the tier holds; exact lands the
	// tier on its last page's last slot
	over := func(m *Manager, hc *HeadCache, level Level) int { return slack(m, hc, level) + 1 }
	exact := func(m *Manager, hc *HeadCache, level Level) int { return slack(m, hc, level) }
	onHeads := func(want ...int32) func([]genGrow) bool {
		return func(grows []genGrow) bool {
			return len(grows) > 0 && !slices.ContainsFunc(grows, func(g genGrow) bool { return !slices.Contains(want, g.head) })
		}
	}
	landing := step{"exact landing", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
		return GenDemand{HiDelta: exact(m, hc, LevelHi), LoDelta: exact(m, hc, LevelLo)}
	}, func(g []genGrow) bool { return len(g) == 0 }, "", false}
	script := []step{
		landing,
		{"first head", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h == 0 {
				return GenDemand{HiDelta: over(m, hc, LevelHi)}
			}
			return GenDemand{}
		}, onHeads(0), "", false},
		{"last head, one sequence idle", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h == heads-1 && s != 1 {
				return GenDemand{LoDelta: over(m, hc, LevelLo)}
			}
			return GenDemand{}
		}, onHeads(heads - 1), "", false},
		{"consecutive heads", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h == 2 || h == 3 {
				return GenDemand{HiDelta: over(m, hc, LevelHi), LoDelta: exact(m, hc, LevelLo)}
			}
			return GenDemand{HiDelta: exact(m, hc, LevelHi)}
		}, onHeads(2, 3), "", false},
		{"every head", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h%2 == 0 {
				return GenDemand{HiDelta: over(m, hc, LevelHi)}
			}
			return GenDemand{LoDelta: over(m, hc, LevelLo)}
		}, func(g []genGrow) bool { return len(g) == seqs*heads }, "", false},
		{"negative deltas", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			return GenDemand{HiDelta: -1 - h%2, LoDelta: -2}
		}, func(g []genGrow) bool { return len(g) == 0 }, "", false},
		{"downgrades", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h%3 == 0 {
				return GenDemand{HiDelta: -1, LoDelta: over(m, hc, LevelLo)}
			}
			return GenDemand{HiDelta: -1, LoDelta: 1}
		}, func(g []genGrow) bool { return len(g) >= seqs*2 }, "", false},
		{"multi-page deltas", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h%2 == 1 {
				return GenDemand{HiDelta: over(m, hc, LevelHi) + 2*m.capHi, LoDelta: over(m, hc, LevelLo) + m.capLo}
			}
			return GenDemand{}
		}, func(g []genGrow) bool {
			for _, x := range g {
				if x.hi != 3 || x.lo != 2 {
					return false
				}
			}
			return len(g) == seqs*heads/2
		}, "", false},
		{"table overflow mid-sequence", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if s == 1 && h == 3 {
				return GenDemand{HiDelta: exact(m, hc, LevelHi) + (hc.table.room()+1)*m.capHi}
			}
			return GenDemand{HiDelta: over(m, hc, LevelHi)}
		}, nil, "kvcache: seq 2 head 3: kvcache: bidirectional table overflow (20 slots)", false},
		{"short pool", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			return GenDemand{HiDelta: exact(m, hc, LevelHi) + hc.table.room()*m.capHi}
		}, nil, "kvcache: out of pages", false},
		{"every head after the failures", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			return GenDemand{HiDelta: over(m, hc, LevelHi), LoDelta: exact(m, hc, LevelLo) + h%2}
		}, func(g []genGrow) bool { return len(g) == seqs*heads }, "", false},
		// one token per head at most, after landings: the steps a source's
		// draws can make
		landing, {"consecutive heads, one token", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h == 2 || h == 3 {
				return GenDemand{HiDelta: over(m, hc, LevelHi)}
			}
			return GenDemand{}
		}, onHeads(2, 3), "", false},
		landing, {"every head, one token", func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if h%2 == 0 {
				return GenDemand{HiDelta: over(m, hc, LevelHi)}
			}
			return GenDemand{LoDelta: over(m, hc, LevelLo)}
		}, func(g []genGrow) bool { return len(g) == seqs*heads }, "", false},
	}
	// random steps drift little, so most of them succeed; one sequence in
	// three draws nothing. Each run reseeds rng, so every run gets the
	// same steps.
	var rng *mathx.RNG
	for i := 0; i < 40; i++ {
		script = append(script, step{fmt.Sprintf("random %d", i), func(m *Manager, s, h int, hc *HeadCache) GenDemand {
			if (i+s)%3 == 0 {
				return GenDemand{}
			}
			d := GenDemand{HiDelta: rng.Intn(3) - 1, LoDelta: rng.Intn(3) - 1}
			switch rng.Intn(8) {
			case 0:
				d.HiDelta = exact(m, hc, LevelHi) + rng.Intn(2)
			case 1:
				d.LoDelta = exact(m, hc, LevelLo) + rng.Intn(2)
			}
			if rng.Intn(32) == 0 {
				d.HiDelta += m.capHi
			}
			d.HiDelta = max(d.HiDelta, -hc.HiTokens())
			d.LoDelta = max(d.LoDelta, -hc.LoTokens())
			return d
		}, nil, "", true})
	}

	ids := make([]int, seqs)
	for i := range ids {
		ids[i] = i + 1
	}
	setup := func() *Manager {
		m := compactManager(t, seqs*heads*16, maxSeqLen) // fewer pages than table slots
		prompt := make([]HeadDemand, heads)
		for h := range prompt {
			prompt[h] = HeadDemand{HiTokens: 30 + h, LoTokens: 60 + 2*h}
		}
		for _, id := range ids {
			if _, err := m.AddSequence(id, heads); err != nil {
				t.Fatal(err)
			}
			if _, err := m.PromptCompact(id, 200, prompt); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	// GenCompactFrom takes a step whose demands are one token per head at
	// most as draws, and the others, which no draw can make, through
	// GenCompact, so that its manager follows the script
	drawn := 0
	entries := []struct {
		name string
		gen  genStep
	}{
		{"GenCompact", (*Manager).GenCompact},
		{"GenCompactFrom", func(m *Manager, ids []int, demands [][]GenDemand) (CompactStats, error) {
			if src, ok := forcedSource(demands); ok {
				drawn++
				return m.GenCompactFrom(ids, src)
			}
			return m.GenCompact(ids, demands)
		}},
	}
	for _, bound := range fanOutBounds {
		for _, entry := range entries {
			t.Run(entry.name+"/fanout="+bound.name, func(t *testing.T) {
				setParallelHeads(t, bound.at)
				rng, drawn = mathx.NewRNG(51), 0
				ref, m := setup(), setup()
				pages, fails := 0, 0
				for _, st := range script {
					// the demands come from the reference's state, which
					// every earlier step has kept equal to m's
					demands := make([][]GenDemand, seqs)
					for s, id := range ids {
						demands[s] = make([]GenDemand, heads)
						for h := range demands[s] {
							demands[s][h] = st.demand(ref, s, h, ref.seqs[id].Head(h))
						}
					}
					before := captureState(ref)
					wantGrows, want, wantErr := refGen(ref, ids, demands)
					if !st.random && ((wantErr == nil) != (st.fails == "") ||
						wantErr != nil && !strings.HasPrefix(wantErr.Error(), st.fails)) {
						t.Fatalf("%s: the reference returned %v, want %q", st.name, wantErr, st.fails)
					}
					if st.check != nil && !st.check(wantGrows) {
						t.Fatalf("%s: the reference recorded %v, not what the step is for", st.name, wantGrows)
					}
					clearGrows(m)
					got, err := entry.gen(m, ids, demands)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: error %v, reference %v", st.name, err, wantErr)
					}
					if got != want {
						t.Fatalf("%s: stats %+v, reference %+v", st.name, got, want)
					}
					if err == nil && !reflect.DeepEqual(plannedGrows(m), wantGrows) {
						t.Fatalf("%s: the walk recorded %v, reference %v", st.name, plannedGrows(m), wantGrows)
					}
					if err != nil {
						fails++
						if !reflect.DeepEqual(captureState(ref), before) {
							t.Fatalf("%s: the reference's undo moved something", st.name)
						}
					}
					if !reflect.DeepEqual(headCounts(t, m, ids), headCounts(t, ref, ids)) {
						t.Fatalf("%s: HeadCounts differ from the reference's", st.name)
					}
					if !reflect.DeepEqual(captureState(m), captureState(ref)) {
						t.Fatalf("%s: page tables, counts or free ring differ from the reference's", st.name)
					}
					pages += got.PagesAllocated
				}
				if pages == 0 || fails < 2 {
					t.Fatalf("the script took %d pages and failed %d steps", pages, fails)
				}
				if entry.name == "GenCompactFrom" && drawn < 4 {
					t.Fatalf("%d steps went through the source, want the 4 one-token steps", drawn)
				}
				checkConservation(t, m, "the script")
			})
		}
	}
}

// The draw leaf, step by step at both fan-out bounds, is the plain
// per-head walk fed by the float tier test that the thresholds replaced
// (drawSource.floatFill): the same error, CompactStats, recorded heads,
// page tables, counts and token totals after every step. Twelve sequences
// of 1 to 256 heads, two chunks when fanned out, each prompt-compacted to
// random counts in a 12-slot table, a few heads' tables full; each step
// draws every sequence's heads from its own stream at random fractions,
// the serving store's mix, its all-low state and the extremes 0 and 1, a
// third of the sequences idle. A failed step — a full table's head
// drawing, or the pool running short — releases one sequence, and a new
// one takes its record.
func TestGenLeafMatchesFloatFill(t *testing.T) {
	const capHi, capLo, slots = 37, 68, 12
	headsOf := []int{256, 3, 256, 1, 256, 7, 256, 256, 64, 256, 256, 2}
	for _, bound := range fanOutBounds {
		t.Run("fanout="+bound.name, func(t *testing.T) {
			setParallelHeads(t, bound.at)
			rng := mathx.NewRNG(52)
			ref, m := compactManager(t, 10500, slots*capHi), compactManager(t, 10500, slots*capHi)
			var ids []int
			nextID := 1
			add := func(heads int) {
				prompt := make([]HeadDemand, heads)
				promptLen := 0
				full := -1 // one sequence in four has a head whose table is full
				if rng.Intn(4) == 0 {
					full = rng.Intn(heads)
				}
				for h := range prompt {
					d := HeadDemand{HiTokens: rng.Intn(6 * capHi), LoTokens: rng.Intn(capLo + 1)}
					if h == full {
						d = HeadDemand{HiTokens: (slots - 1) * capHi, LoTokens: capLo}
					}
					prompt[h], promptLen = d, max(promptLen, d.HiTokens+d.LoTokens)
				}
				// a full table comes by adoption, which takes no
				// conservative reservation; a sequence the pool cannot
				// take is not added
				adopt := promptLen > 6*capHi || rng.Intn(2) == 0
				var errs [2]error
				for i, mm := range []*Manager{ref, m} {
					if adopt {
						errs[i] = mm.AdoptCounts(nextID, prompt)
						continue
					}
					if _, err := mm.AddSequence(nextID, heads); err != nil {
						t.Fatal(err)
					}
					if _, errs[i] = mm.PromptCompact(nextID, promptLen, prompt); errs[i] != nil {
						if err := mm.ReleaseSequence(nextID); err != nil {
							t.Fatal(err)
						}
					}
				}
				if fmt.Sprint(errs[0]) != fmt.Sprint(errs[1]) {
					t.Fatalf("adding seq %d: %v, reference %v", nextID, errs[1], errs[0])
				}
				if errs[0] == nil {
					ids = append(ids, nextID)
				}
				nextID++
			}
			for _, n := range headsOf {
				add(n)
			}
			pages, failed := 0, map[string]int{}
			for step := 0; step < 120; step++ {
				heads := make([]int, len(ids))
				for i, id := range ids {
					heads[i] = len(m.seqs[id].heads)
				}
				src := randomDraws(rng, heads, false)
				wantGrows, want, wantErr := refGen(ref, ids, src.floatFill())
				clearGrows(m)
				got, err := m.GenCompactFrom(ids, src)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("step %d: error %v, reference %v", step, err, wantErr)
				}
				if got != want {
					t.Fatalf("step %d: stats %+v, reference %+v", step, got, want)
				}
				if err == nil && !reflect.DeepEqual(plannedGrows(m), wantGrows) {
					t.Fatalf("step %d: the walk recorded %v, reference %v", step, plannedGrows(m), wantGrows)
				}
				if !reflect.DeepEqual(captureState(m), captureState(ref)) {
					t.Fatalf("step %d: page tables, counts or free ring differ from the reference's", step)
				}
				checkTotals(t, m, fmt.Sprintf("step %d", step))
				pages += got.PagesAllocated
				if err == nil {
					continue
				}
				// an overflow releases its sequence, a short pool any one
				i, kind := rng.Intn(len(ids)), "out of pages"
				var id, head int
				if _, serr := fmt.Sscanf(err.Error(), "kvcache: seq %d head %d:", &id, &head); serr == nil {
					i, kind = slices.Index(ids, id), "table overflow"
				}
				failed[kind]++
				for _, mm := range []*Manager{ref, m} {
					if err := mm.ReleaseSequence(ids[i]); err != nil {
						t.Fatal(err)
					}
				}
				heads = slices.Delete(heads, i, i+1)
				ids = slices.Delete(ids, i, i+1)
				add(headsOf[rng.Intn(len(headsOf))])
			}
			if pages == 0 || failed["table overflow"] == 0 || failed["out of pages"] == 0 {
				t.Fatalf("the steps took %d pages and failed %v; want pages, overflows and short pools", pages, failed)
			}
			checkConservation(t, m, "the steps")
		})
	}
}
