package kvcache

import (
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

func testManager(t *testing.T, materialize bool, numPages int) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Dim:         128,
		PageBytes:   8192,
		NumPages:    numPages,
		HiPrec:      quant.K8V4,
		LoPrec:      quant.K4V2,
		MaxSeqLen:   4096,
		Materialize: materialize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// forEachToken calls fn for every live token of the tier.
func forEachToken(hc *HeadCache, level Level, fn func(p *Page, slot int)) {
	for i := 0; i < hc.PageCount(level); i++ {
		p := hc.PageAt(level, i)
		for s := 0; s < p.N; s++ {
			fn(p, s)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{Dim: 64, NumPages: 10}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.HiPrec != quant.K8V4 || c.LoPrec != quant.K4V2 {
		t.Fatal("precision defaults wrong")
	}
	if c.PageBytes != 8192 || c.MaxSeqLen != 8192 {
		t.Fatal("size defaults wrong")
	}
}

func TestConfigRejectsInvertedPrecisions(t *testing.T) {
	c := Config{Dim: 64, NumPages: 10, HiPrec: quant.K4V2, LoPrec: quant.K8V4}
	if err := c.Validate(); err == nil {
		t.Fatal("expected error: low tier larger than high tier")
	}
}

func TestTokensPerPage(t *testing.T) {
	// 8192B page, dim 128: K8V4 tokens are 216B -> 37 tokens; K4V2 are
	// 120B -> 68 tokens.
	m := testManager(t, false, 16)
	if m.TokensPerHiPage() != 8192/216 {
		t.Fatalf("hi cap = %d", m.TokensPerHiPage())
	}
	if m.TokensPerLoPage() != 8192/120 {
		t.Fatalf("lo cap = %d", m.TokensPerLoPage())
	}
	if m.TokensPerLoPage() <= m.TokensPerHiPage() {
		t.Fatal("low-precision pages must hold more tokens")
	}
}

func TestAddReleaseSequence(t *testing.T) {
	m := testManager(t, false, 64)
	sc, err := m.AddSequence(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.heads) != 8 {
		t.Fatalf("heads = %d", len(sc.heads))
	}
	if _, err := m.AddSequence(1, 8); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	if err := m.ReleaseSequence(1); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseSequence(1); err == nil {
		t.Fatal("double release should fail")
	}
}

func TestPromptCompactBasic(t *testing.T) {
	m := testManager(t, false, 256)
	nHeads := 8
	promptLen := 100
	if _, err := m.AddSequence(7, nHeads); err != nil {
		t.Fatal(err)
	}
	demands := make([]HeadDemand, nHeads)
	for i := range demands {
		demands[i] = HeadDemand{HiTokens: 20 + i, LoTokens: 30}
	}
	stats, err := m.PromptCompact(7, promptLen, demands)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TokenOps != promptLen*nHeads {
		t.Fatalf("TokenOps = %d", stats.TokenOps)
	}
	if stats.Regions != nHeads {
		t.Fatalf("Regions = %d", stats.Regions)
	}
	sc := m.seqs[7]
	for i := range sc.heads {
		hc := sc.Head(i)
		if hc.HiTokens() != 20+i || hc.LoTokens() != 30 {
			t.Fatalf("head %d counts: hi=%d lo=%d", i, hc.HiTokens(), hc.LoTokens())
		}
		wantHi := (20 + i + m.capHi - 1) / m.capHi
		wantLo := (30 + m.capLo - 1) / m.capLo
		if hc.table.count(LevelHi) != wantHi || hc.table.count(LevelLo) != wantLo {
			t.Fatalf("head %d pages: hi=%d lo=%d, want %d/%d",
				i, hc.table.count(LevelHi), hc.table.count(LevelLo), wantHi, wantLo)
		}
	}
	// unused conservative pages must be back on the free list
	used := 0
	for i := range sc.heads {
		hc := sc.Head(i)
		used += hc.table.count(LevelHi) + hc.table.count(LevelLo)
	}
	if m.UsedPages() != used {
		t.Fatalf("UsedPages=%d, tables hold %d", m.UsedPages(), used)
	}
}

func TestPromptCompactConservativeReclaim(t *testing.T) {
	// A fully-pruned head must end with zero pages even though the
	// conservative allocation gave it ceil(promptLen/capHi).
	m := testManager(t, false, 128)
	m.AddSequence(1, 2)
	stats, err := m.PromptCompact(1, 74, []HeadDemand{
		{HiTokens: 0, LoTokens: 0}, // everything pruned
		{HiTokens: 74, LoTokens: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.seqs[1]
	if sc.Head(0).table.count(LevelHi) != 0 || sc.Head(0).table.count(LevelLo) != 0 {
		t.Fatal("pruned head kept pages")
	}
	if stats.PagesFreed == 0 {
		t.Fatal("no pages reclaimed")
	}
}

func TestPromptCompactDemandExceedsPrompt(t *testing.T) {
	m := testManager(t, false, 64)
	m.AddSequence(1, 1)
	before := m.FreePages()
	_, err := m.PromptCompact(1, 10, []HeadDemand{{HiTokens: 8, LoTokens: 8}})
	if err == nil {
		t.Fatal("expected demand validation error")
	}
	if m.FreePages() != before {
		t.Fatalf("failed compact leaked pages: %d -> %d", before, m.FreePages())
	}
}

func TestPromptCompactOutOfMemory(t *testing.T) {
	m := testManager(t, false, 4)
	m.AddSequence(1, 8)
	_, err := m.PromptCompact(1, 1000, make([]HeadDemand, 8))
	if err == nil {
		t.Fatal("expected out-of-pages error")
	}
}

func TestGenCompactAllocatesOnBoundary(t *testing.T) {
	m := testManager(t, false, 256)
	m.AddSequence(1, 2)
	capHi := m.TokensPerHiPage()
	// fill exactly one hi page on head 0
	_, err := m.PromptCompact(1, capHi, []HeadDemand{
		{HiTokens: capHi}, {HiTokens: capHi},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := m.seqs[1]
	if sc.Head(0).table.count(LevelHi) != 1 {
		t.Fatalf("expected 1 hi page, got %d", sc.Head(0).table.count(LevelHi))
	}
	// next hi token forces a second page on both heads
	stats, err := m.GenCompact([]int{1}, [][]GenDemand{{
		{HiDelta: 1}, {HiDelta: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesAllocated != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", stats.PagesAllocated)
	}
	if sc.Head(0).table.count(LevelHi) != 2 {
		t.Fatal("second hi page not attached")
	}
	// a step with no growth allocates nothing
	stats, err = m.GenCompact([]int{1}, [][]GenDemand{{
		{}, {},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PagesAllocated != 0 {
		t.Fatalf("steady-state step allocated %d pages", stats.PagesAllocated)
	}
}

func TestGenCompactDowngradePath(t *testing.T) {
	// candidate to hi + victim downgraded to lo: hi count steady, lo +1,
	// which is a demand of one lo token
	m := testManager(t, false, 256)
	m.AddSequence(1, 1)
	if _, err := m.PromptCompact(1, 30, []HeadDemand{{HiTokens: 30}}); err != nil {
		t.Fatal(err)
	}
	sc := m.seqs[1]
	hc := sc.Head(0)
	_, err := m.GenCompact([]int{1}, [][]GenDemand{{
		{LoDelta: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hc.HiTokens() != 30 || hc.LoTokens() != 1 {
		t.Fatalf("counts after downgrade: hi=%d lo=%d", hc.HiTokens(), hc.LoTokens())
	}
	if hc.table.count(LevelLo) != 1 {
		t.Fatal("downgrade should have allocated one lo page")
	}
}

func TestReleaseRecyclesEverything(t *testing.T) {
	m := testManager(t, false, 256)
	for s := 0; s < 4; s++ {
		m.AddSequence(s, 4)
		demands := make([]HeadDemand, 4)
		for i := range demands {
			demands[i] = HeadDemand{HiTokens: 50, LoTokens: 60}
		}
		if _, err := m.PromptCompact(s, 120, demands); err != nil {
			t.Fatal(err)
		}
	}
	if m.UsedPages() == 0 {
		t.Fatal("no pages in use")
	}
	for s := 0; s < 4; s++ {
		if err := m.ReleaseSequence(s); err != nil {
			t.Fatal(err)
		}
	}
	if m.FreePages() != 256 {
		t.Fatalf("pages leaked: free=%d", m.FreePages())
	}
}

func TestBytesUsedAndMetadata(t *testing.T) {
	m := testManager(t, false, 64)
	m.AddSequence(1, 2)
	m.PromptCompact(1, 74, []HeadDemand{{HiTokens: 74}, {HiTokens: 37, LoTokens: 37}})
	if m.BytesUsed() != int64(m.UsedPages())*8192 {
		t.Fatal("BytesUsed inconsistent with page count")
	}
	if m.MetadataBytes() <= 0 {
		t.Fatal("metadata accounting missing")
	}
}

func TestKVBytesTokenExact(t *testing.T) {
	m := testManager(t, false, 64)
	m.AddSequence(1, 1)
	m.PromptCompact(1, 50, []HeadDemand{{HiTokens: 10, LoTokens: 20}})
	sc := m.seqs[1]
	want := 10*quant.K8V4.TokenBytes(128) + 20*quant.K4V2.TokenBytes(128)
	if got := sc.Head(0).KVBytes(); got != want {
		t.Fatalf("KVBytes = %d, want %d", got, want)
	}
}

// --- materialized-mode tests ---

func genToken(rng *mathx.RNG, dim int) (k, v []float32) {
	k = make([]float32, dim)
	v = make([]float32, dim)
	rng.NormVec(k, 1)
	rng.NormVec(v, 1)
	return k, v
}

func TestAppendTokenAndRoundTrip(t *testing.T) {
	m := testManager(t, true, 64)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Head(0)
	rng := mathx.NewRNG(5)
	dim := 128

	var keys, vals [][]float32
	for i := 0; i < 80; i++ { // spans 3 hi pages
		k, v := genToken(rng, dim)
		keys = append(keys, k)
		vals = append(vals, v)
		if err := hc.AppendToken(LevelHi, k, v, float32(i), int32(i)); err != nil {
			t.Fatal(err)
		}
	}
	if hc.HiTokens() != 80 {
		t.Fatalf("HiTokens = %d", hc.HiTokens())
	}
	if got := hc.PageCount(LevelHi); got != 3 {
		t.Fatalf("hi pages = %d, want 3", got)
	}
	// every token must round-trip with small error and correct position
	kb := make([]float32, dim)
	vb := make([]float32, dim)
	seen := 0
	forEachToken(hc, LevelHi, func(p *Page, slot int) {
		pos := int(p.Position(slot))
		p.DequantToken(slot, kb, vb)
		if e := mathx.RelErr(kb, keys[pos]); e > 0.05 {
			t.Fatalf("token %d key error %v", pos, e)
		}
		if e := mathx.RelErr(vb, vals[pos]); e > 0.2 {
			t.Fatalf("token %d value error %v", pos, e)
		}
		seen++
	})
	if seen != 80 {
		t.Fatalf("iterated %d tokens", seen)
	}
}

func TestAppendTokenCountsOnlyFails(t *testing.T) {
	m := testManager(t, false, 8)
	sc, _ := m.AddSequence(1, 1)
	k := make([]float32, 128)
	if err := sc.Head(0).AppendToken(LevelHi, k, k, 0, 0); err == nil {
		t.Fatal("expected materialization error")
	}
}

func TestMinScoreAndRemove(t *testing.T) {
	m := testManager(t, true, 64)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Head(0)
	rng := mathx.NewRNG(9)
	scores := []float32{5, 1, 3, 0.5, 4, 2}
	for i, s := range scores {
		k, v := genToken(rng, 128)
		hc.AppendToken(LevelHi, k, v, s, int32(i))
	}
	ref, score, ok := hc.MinScore(LevelHi)
	if !ok || score != 0.5 {
		t.Fatalf("MinScore = %v ok=%v", score, ok)
	}
	p := hc.page(ref.Level, ref.Page)
	if p.Position(ref.Slot) != 3 {
		t.Fatalf("min token position = %d, want 3", p.Position(ref.Slot))
	}
	if err := hc.RemoveToken(ref); err != nil {
		t.Fatal(err)
	}
	if hc.HiTokens() != 5 {
		t.Fatalf("HiTokens after remove = %d", hc.HiTokens())
	}
	// next min is 1 (position 1)
	_, score, ok = hc.MinScore(LevelHi)
	if !ok || score != 1 {
		t.Fatalf("second MinScore = %v", score)
	}
	// removed token must be gone
	forEachToken(hc, LevelHi, func(p *Page, slot int) {
		if p.Position(slot) == 3 {
			t.Fatal("removed token still present")
		}
	})
}

func TestMinScoreEmpty(t *testing.T) {
	m := testManager(t, true, 8)
	sc, _ := m.AddSequence(1, 1)
	if _, _, ok := sc.Head(0).MinScore(LevelLo); ok {
		t.Fatal("empty tier reported a min")
	}
}

func TestRemoveAcrossPages(t *testing.T) {
	m := testManager(t, true, 64)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Head(0)
	rng := mathx.NewRNG(13)
	capHi := m.TokensPerHiPage()
	n := capHi + 5 // two pages
	for i := 0; i < n; i++ {
		k, v := genToken(rng, 128)
		hc.AppendToken(LevelHi, k, v, float32(i), int32(i))
	}
	// remove a token from the FIRST page: the last token of page 2 must
	// backfill it
	err := hc.RemoveToken(TokenRef{Level: LevelHi, Page: 0, Slot: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hc.HiTokens() != n-1 {
		t.Fatalf("count = %d", hc.HiTokens())
	}
	positions := map[int32]int{}
	forEachToken(hc, LevelHi, func(p *Page, slot int) {
		positions[p.Position(slot)]++
	})
	if len(positions) != n-1 {
		t.Fatalf("distinct positions = %d, want %d", len(positions), n-1)
	}
	for pos, c := range positions {
		if c != 1 {
			t.Fatalf("position %d appears %d times", pos, c)
		}
		if pos == 2 {
			t.Fatal("removed position still present")
		}
	}
}

func TestDowngradeMovesTokenToLowTier(t *testing.T) {
	m := testManager(t, true, 64)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Head(0)
	rng := mathx.NewRNG(17)
	orig := make(map[int32][]float32)
	for i := 0; i < 10; i++ {
		k, v := genToken(rng, 128)
		orig[int32(i)] = append([]float32(nil), k...)
		hc.AppendToken(LevelHi, k, v, float32(10-i), int32(i))
	}
	// min-score token is position 9
	ref, _, _ := hc.MinScore(LevelHi)
	kb := make([]float32, 128)
	vb := make([]float32, 128)
	if err := hc.Downgrade(ref, kb, vb); err != nil {
		t.Fatal(err)
	}
	if hc.HiTokens() != 9 || hc.LoTokens() != 1 {
		t.Fatalf("counts: hi=%d lo=%d", hc.HiTokens(), hc.LoTokens())
	}
	// the downgraded token lives in the lo tier with its position intact,
	// at K4V2 fidelity
	found := false
	forEachToken(hc, LevelLo, func(p *Page, slot int) {
		if p.Position(slot) == 9 {
			found = true
			p.DequantToken(slot, kb, vb)
			if e := mathx.RelErr(kb, orig[9]); e > 0.25 {
				t.Fatalf("downgraded key error %v", e)
			}
		}
	})
	if !found {
		t.Fatal("downgraded token missing from low tier")
	}
}

func TestDowngradeRequiresHiRef(t *testing.T) {
	m := testManager(t, true, 8)
	sc, _ := m.AddSequence(1, 1)
	kb := make([]float32, 128)
	err := sc.Head(0).Downgrade(TokenRef{Level: LevelLo}, kb, kb)
	if err == nil {
		t.Fatal("expected error")
	}
}

func TestMaterializedReleaseRecycles(t *testing.T) {
	m := testManager(t, true, 32)
	sc, _ := m.AddSequence(1, 2)
	rng := mathx.NewRNG(21)
	for i := 0; i < 100; i++ {
		k, v := genToken(rng, 128)
		sc.Head(i%2).AppendToken(LevelHi, k, v, 1, int32(i))
	}
	if m.UsedPages() == 0 {
		t.Fatal("no pages used")
	}
	m.ReleaseSequence(1)
	if m.FreePages() != 32 {
		t.Fatalf("pages leaked: %d free", m.FreePages())
	}
}

func TestPageFullCycleAfterEviction(t *testing.T) {
	// regression: removing the only token of the last page then appending
	// must reuse the empty page rather than allocating
	m := testManager(t, true, 64)
	sc, _ := m.AddSequence(1, 1)
	hc := sc.Head(0)
	rng := mathx.NewRNG(23)
	capHi := m.TokensPerHiPage()
	for i := 0; i < capHi+1; i++ {
		k, v := genToken(rng, 128)
		hc.AppendToken(LevelHi, k, v, 1, int32(i))
	}
	pagesBefore := hc.PageCount(LevelHi)
	hc.RemoveToken(TokenRef{Level: LevelHi, Page: 1, Slot: 0})
	k, v := genToken(rng, 128)
	hc.AppendToken(LevelHi, k, v, 1, int32(capHi+1))
	if hc.PageCount(LevelHi) != pagesBefore {
		t.Fatalf("empty trailing page not reused: %d -> %d",
			pagesBefore, hc.PageCount(LevelHi))
	}
}
