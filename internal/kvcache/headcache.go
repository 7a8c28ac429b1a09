package kvcache

import "fmt"

// Level selects one of the two precision tiers of a head's cache.
type Level int

const (
	// LevelHi is the high-precision tier (e.g. K8V4).
	LevelHi Level = iota
	// LevelLo is the low-precision tier (e.g. K4V2).
	LevelLo
)

func (l Level) String() string {
	if l == LevelHi {
		return "hi"
	}
	return "lo"
}

// TokenRef addresses one cached token within a head's tier.
type TokenRef struct {
	Level Level
	Page  int // index within the tier's page list (push order)
	Slot  int
}

// HeadCache is the per-(sequence, KV-head) cache view: a bidirectional page
// table plus token counts. In materialized mode it supports token-level
// append / score-update / remove / downgrade operations (the mechanics
// behind the compression policy); in counts-only mode just the counts.
//
// A sequence's HeadCaches are one slab (see Manager.AddSequence), the table
// is held by value and both per-tier pairs are indexed by Level, so the
// Manager's planning pass reads one cache line per head.
type HeadCache struct {
	mgr    *Manager
	table  BiTable
	tokens [2]int // cached tokens per tier
}

// HiTokens returns the number of tokens in the high-precision tier.
func (hc *HeadCache) HiTokens() int { return hc.tokens[LevelHi] }

// LoTokens returns the number of tokens in the low-precision tier.
func (hc *HeadCache) LoTokens() int { return hc.tokens[LevelLo] }

// TotalTokens returns the number of cached tokens across both tiers.
func (hc *HeadCache) TotalTokens() int { return hc.tokens[LevelHi] + hc.tokens[LevelLo] }

func (hc *HeadCache) page(level Level, i int) *Page {
	return hc.mgr.pool.Get(hc.table.id(level, i))
}

// KVBytes returns the payload+metadata bytes attention must read for this
// head (token-exact, not page-rounded).
func (hc *HeadCache) KVBytes() int {
	dim := hc.mgr.cfg.Dim
	return hc.tokens[LevelHi]*hc.mgr.cfg.HiPrec.TokenBytes(dim) +
		hc.tokens[LevelLo]*hc.mgr.cfg.LoPrec.TokenBytes(dim)
}

// appendPage returns the tier's last page, allocating and configuring a
// fresh unified page when it is missing or full.
func (hc *HeadCache) appendPage(level Level) (*Page, error) {
	if n := hc.table.count(level); n > 0 {
		if p := hc.page(level, n-1); !p.Full() {
			return p, nil
		}
	}
	if hc.table.room() == 0 {
		return nil, tableOverflow(hc.table.Len())
	}
	id, err := hc.mgr.free.Alloc()
	if err != nil {
		return nil, err
	}
	hc.mgr.attach(hc, level, []int32{id}, 0)
	return hc.mgr.pool.Get(id), nil
}

// AppendToken quantizes (key, val) into the tier, allocating and
// configuring a fresh unified page when the tier's last page is full.
// Materialized mode only.
func (hc *HeadCache) AppendToken(level Level, key, val []float32, score float32, pos int32) error {
	if !hc.mgr.cfg.Materialize {
		return fmt.Errorf("kvcache: AppendToken requires a materialized manager")
	}
	p, err := hc.appendPage(level)
	if err != nil {
		return err
	}
	p.Append(key, val, score, pos)
	hc.tokens[level]++
	return nil
}

// AppendRawToken copies an already-quantized token into the tier — the
// swap-in restore path (see Page.AppendRaw). Materialized mode only.
func (hc *HeadCache) AppendRawToken(level Level, key, val []byte, kScale, kZero, vScale, vZero, score float32, pos int32) error {
	if !hc.mgr.cfg.Materialize {
		return fmt.Errorf("kvcache: AppendRawToken requires a materialized manager")
	}
	p, err := hc.appendPage(level)
	if err != nil {
		return err
	}
	p.AppendRaw(key, val, kScale, kZero, vScale, vZero, score, pos)
	hc.tokens[level]++
	return nil
}

// PageCount returns the number of pages in the tier (push order indexing
// for PageAt). Trailing pages may be empty after removals.
func (hc *HeadCache) PageCount(level Level) int { return hc.table.count(level) }

// PageAt returns the i-th page of the tier in push order — the slot-range
// accessor the scratch-based attention kernels iterate directly, avoiding
// the per-token callback of ForEachToken.
func (hc *HeadCache) PageAt(level Level, i int) *Page { return hc.page(level, i) }

// ForEachToken calls fn for every live token of the tier.
func (hc *HeadCache) ForEachToken(level Level, fn func(p *Page, slot int)) {
	n := hc.table.count(level)
	for i := 0; i < n; i++ {
		p := hc.page(level, i)
		for s := 0; s < p.N; s++ {
			fn(p, s)
		}
	}
}

// MinScore returns a reference to the tier's least significant token.
// ok is false when the tier is empty.
func (hc *HeadCache) MinScore(level Level) (ref TokenRef, score float32, ok bool) {
	n := hc.table.count(level)
	first := true
	for i := 0; i < n; i++ {
		scores := hc.page(level, i).Scores()
		for s, sc := range scores {
			if first || sc < score {
				score = sc
				ref = TokenRef{Level: level, Page: i, Slot: s}
				first = false
			}
		}
	}
	return ref, score, !first
}

// TokenAt dequantizes the referenced token into the provided buffers and
// returns its score and position.
func (hc *HeadCache) TokenAt(ref TokenRef, key, val []float32) (score float32, pos int32) {
	p := hc.page(ref.Level, ref.Page)
	p.DequantToken(ref.Slot, key, val)
	return p.Score(ref.Slot), p.Position(ref.Slot)
}

// RemoveToken deletes the referenced token, filling the hole with the
// tier's globally last token so storage stays compact. Pages are not
// recycled during generation (paper §5.3); an emptied trailing page is
// reused by the next append.
func (hc *HeadCache) RemoveToken(ref TokenRef) error {
	n := hc.table.count(ref.Level)
	if n == 0 {
		return fmt.Errorf("kvcache: RemoveToken from empty tier")
	}
	// locate the tier's last live page
	lastIdx := -1
	for i := n - 1; i >= 0; i-- {
		if hc.page(ref.Level, i).N > 0 {
			lastIdx = i
			break
		}
	}
	if lastIdx < 0 {
		return fmt.Errorf("kvcache: RemoveToken from empty tier")
	}
	target := hc.page(ref.Level, ref.Page)
	last := hc.page(ref.Level, lastIdx)
	if ref.Page > lastIdx || ref.Slot >= target.N {
		return fmt.Errorf("kvcache: RemoveToken reference out of range")
	}
	if ref.Page == lastIdx {
		target.RemoveSwap(ref.Slot)
	} else {
		// move last page's last token into the hole, then shrink
		target.copyFrom(last, last.N-1, ref.Slot)
		last.N--
	}
	hc.tokens[ref.Level]--
	return nil
}

// Downgrade re-quantizes the referenced high-tier token into the low tier
// (the paper's smooth downgrading path, Algorithm 1 lines 8-9), then
// removes it from the high tier. The reconstruction error of the high-tier
// quantization is carried into the low tier, exactly as in the real
// system.
func (hc *HeadCache) Downgrade(ref TokenRef, keyBuf, valBuf []float32) error {
	if ref.Level != LevelHi {
		return fmt.Errorf("kvcache: Downgrade requires a high-tier token")
	}
	score, pos := hc.TokenAt(ref, keyBuf, valBuf)
	if err := hc.AppendToken(LevelLo, keyBuf, valBuf, score, pos); err != nil {
		return err
	}
	return hc.RemoveToken(ref)
}

// copyFrom copies a token slot from src into dst (same precision tier).
func (p *Page) copyFrom(src *Page, srcSlot, dstSlot int) {
	if p.Prec != src.Prec {
		panic("kvcache: cross-precision token copy")
	}
	kb := p.Prec.KeyBytes(p.Dim)
	vb := p.Prec.ValBytes(p.Dim)
	copy(p.keys[dstSlot*kb:(dstSlot+1)*kb], src.keys[srcSlot*kb:(srcSlot+1)*kb])
	copy(p.vals[dstSlot*vb:(dstSlot+1)*vb], src.vals[srcSlot*vb:(srcSlot+1)*vb])
	p.keyMeta[2*dstSlot], p.keyMeta[2*dstSlot+1] = src.keyMeta[2*srcSlot], src.keyMeta[2*srcSlot+1]
	p.valMeta[2*dstSlot], p.valMeta[2*dstSlot+1] = src.valMeta[2*srcSlot], src.valMeta[2*srcSlot+1]
	p.scores[dstSlot] = src.scores[srcSlot]
	p.pos[dstSlot] = src.pos[srcSlot]
}
