package kvcache

import (
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

func TestTokensPerPageValues(t *testing.T) {
	// 8192-byte page, dim 128
	if got := TokensPerPage(8192, 128, quant.K8V4); got != 37 {
		t.Fatalf("K8V4 tokens/page = %d, want 37", got)
	}
	if got := TokensPerPage(8192, 128, quant.K4V2); got != 68 {
		t.Fatalf("K4V2 tokens/page = %d, want 68", got)
	}
	if got := TokensPerPage(8192, 128, quant.FP16); got != 15 {
		t.Fatalf("FP16 tokens/page = %d, want 15", got)
	}
}

func TestTokensPerPagePanicsWhenTooSmall(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TokensPerPage(64, 128, quant.FP16)
}

// configurePage prepares the pool's page 0 for prec at the capacity the
// Manager would compute for it; every pool it is given has 8 KiB pages.
func configurePage(pool *PagePool, prec quant.Precision) *Page {
	return pool.configure(0, prec, TokensPerPage(8192, pool.dim, prec))
}

func TestPageConfigureResets(t *testing.T) {
	pool := NewPagePool(2, 8192, 128)
	p := configurePage(pool, quant.K8V4)
	k := make([]float32, 128)
	v := make([]float32, 128)
	rng := mathx.NewRNG(1)
	rng.NormVec(k, 1)
	rng.NormVec(v, 1)
	p.Append(k, v, 0.5, 7)
	if p.N != 1 {
		t.Fatalf("N = %d", p.N)
	}
	// reconfigure to the other precision: capacity changes, contents reset
	p2 := configurePage(pool, quant.K4V2)
	if p2.N != 0 {
		t.Fatal("configure did not reset N")
	}
	if p2.Cap != 68 {
		t.Fatalf("reconfigured cap = %d", p2.Cap)
	}
}

func TestPageAppendFullPanics(t *testing.T) {
	pool := NewPagePool(1, 8192, 128)
	p := configurePage(pool, quant.FP16)
	k := make([]float32, 128)
	for i := 0; i < p.Cap; i++ {
		p.Append(k, k, 0, int32(i))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Append(k, k, 0, 99)
}

// A counts-only manager holds no page pool: its tables hold page IDs that
// name no Page, so there is no page to append a token into and reaching
// one panics.
func TestPageCountsOnlyAppendPanics(t *testing.T) {
	m := testManager(t, false, 16)
	if m.pool != nil {
		t.Fatal("counts-only manager built a page pool")
	}
	sc, err := m.AddSequence(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.PromptCompact(1, 40, []HeadDemand{{HiTokens: 40}}); err != nil {
		t.Fatal(err)
	}
	hc := sc.Heads[0]
	if hc.PageCount(LevelHi) != 2 || hc.HiTokens() != 40 {
		t.Fatalf("%d hi page IDs for %d tokens, want 2 for 40", hc.PageCount(LevelHi), hc.HiTokens())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	hc.PageAt(LevelHi, 1).Append(make([]float32, 128), make([]float32, 128), 0, 0)
}

func TestPageRemoveSwapWithinPage(t *testing.T) {
	pool := NewPagePool(1, 8192, 64)
	p := configurePage(pool, quant.K8V4)
	rng := mathx.NewRNG(2)
	for i := 0; i < 5; i++ {
		k := make([]float32, 64)
		v := make([]float32, 64)
		rng.NormVec(k, 1)
		rng.NormVec(v, 1)
		p.Append(k, v, float32(i), int32(i))
	}
	p.RemoveSwap(1) // position 4 moves into slot 1
	if p.N != 4 {
		t.Fatalf("N = %d", p.N)
	}
	if p.Position(1) != 4 {
		t.Fatalf("slot 1 position = %d, want 4", p.Position(1))
	}
	if p.Score(1) != 4 {
		t.Fatalf("slot 1 score = %v, want 4", p.Score(1))
	}
}

func TestPageRemoveSwapOutOfRangePanics(t *testing.T) {
	pool := NewPagePool(1, 8192, 64)
	p := configurePage(pool, quant.K8V4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.RemoveSwap(0)
}

func TestPageDequantRoundTrip(t *testing.T) {
	pool := NewPagePool(1, 8192, 128)
	p := configurePage(pool, quant.K8V4)
	rng := mathx.NewRNG(3)
	k := make([]float32, 128)
	v := make([]float32, 128)
	rng.NormVec(k, 1)
	rng.NormVec(v, 1)
	slot := p.Append(k, v, 0.9, 42)
	ko := make([]float32, 128)
	vo := make([]float32, 128)
	p.DequantToken(slot, ko, vo)
	if e := mathx.RelErr(ko, k); e > 0.02 {
		t.Fatalf("key round-trip error %v (8-bit)", e)
	}
	if e := mathx.RelErr(vo, v); e > 0.15 {
		t.Fatalf("value round-trip error %v (4-bit)", e)
	}
	if p.Score(slot) != 0.9 || p.Position(slot) != 42 {
		t.Fatal("score/position lost")
	}
}

func TestPagePoolInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPagePool(0, 8192, 128)
}

func TestPagePoolAccessors(t *testing.T) {
	pool := NewPagePool(3, 4096, 64)
	if len(pool.pages) != 3 || pool.dim != 64 {
		t.Fatal("accessors wrong")
	}
	if pool.Get(2) != &pool.pages[2] {
		t.Fatal("page ID wrong")
	}
	// pages are empty until configured, and configured pages carry segments
	perPage := TokensPerPage(4096, 64, quant.K4V2)
	p := pool.configure(2, quant.K4V2, perPage)
	if p.N != 0 || p.Cap != perPage || p.Dim != 64 || len(p.scores) != p.Cap || len(p.keys) != p.Cap*quant.K4V2.KeyBytes(64) {
		t.Fatalf("configured page: N %d, Cap %d, Dim %d, %d scores, %d key bytes", p.N, p.Cap, p.Dim, len(p.scores), len(p.keys))
	}
}
