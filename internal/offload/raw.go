package offload

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"diffkv/internal/kvcache"
)

// Raw payload capture for materialized swaps. A swap is a byte copy, not
// a dequantize-requantize round trip: the host buffer holds the exact
// packed codes and metadata, and restore writes them back verbatim via
// Page.AppendRaw — bit-identical across every quant tier.
//
// Layout per token, per head, high tier then low tier, in ForEachToken
// order: packed key bytes | packed value bytes | kScale kZero vScale vZero
// score (5×f32 LE) | position (i32 LE).

// captureRaw serializes a materialized sequence's live tokens byte-exactly.
func captureRaw(mgr *kvcache.Manager, seqID int) ([]byte, error) {
	sc, ok := mgr.Sequence(seqID)
	if !ok {
		return nil, fmt.Errorf("offload: unknown sequence %d", seqID)
	}
	var buf bytes.Buffer
	var f32 [4]byte
	putF32 := func(v float32) {
		binary.LittleEndian.PutUint32(f32[:], math.Float32bits(v))
		buf.Write(f32[:])
	}
	for _, hc := range sc.Heads {
		for _, lvl := range []kvcache.Level{kvcache.LevelHi, kvcache.LevelLo} {
			hc.ForEachToken(lvl, func(p *kvcache.Page, slot int) {
				kd, ks, kz := p.KeyData(slot)
				vd, vs, vz := p.ValData(slot)
				buf.Write(kd)
				buf.Write(vd)
				putF32(ks)
				putF32(kz)
				putF32(vs)
				putF32(vz)
				putF32(p.Score(slot))
				binary.LittleEndian.PutUint32(f32[:], uint32(p.Position(slot)))
				buf.Write(f32[:])
			})
		}
	}
	return buf.Bytes(), nil
}

// restoreRaw rebuilds a sequence byte-exactly from its captured payload.
// On any failure (out of pages, truncated buffer) the partial restore is
// released so the host copy can be retried later.
func restoreRaw(mgr *kvcache.Manager, seqID int, counts []kvcache.HeadDemand, snap []byte) error {
	sc, err := mgr.AddSequence(seqID, len(counts))
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = mgr.ReleaseSequence(seqID)
		return err
	}
	cfg := mgr.Config()
	off := 0
	readTok := func(hc *kvcache.HeadCache, lvl kvcache.Level, kb, vb int) error {
		need := kb + vb + 6*4
		if off+need > len(snap) {
			return fmt.Errorf("offload: truncated swap payload")
		}
		key := snap[off : off+kb]
		val := snap[off+kb : off+kb+vb]
		m := snap[off+kb+vb:]
		f := func(i int) float32 {
			return math.Float32frombits(binary.LittleEndian.Uint32(m[4*i:]))
		}
		pos := int32(binary.LittleEndian.Uint32(m[20:]))
		off += need
		return hc.AppendRawToken(lvl, key, val, f(0), f(1), f(2), f(3), f(4), pos)
	}
	for h, hc := range sc.Heads {
		d := counts[h]
		for i := 0; i < d.HiTokens; i++ {
			if err := readTok(hc, kvcache.LevelHi, cfg.HiPrec.KeyBytes(cfg.Dim), cfg.HiPrec.ValBytes(cfg.Dim)); err != nil {
				return cleanup(err)
			}
		}
		for i := 0; i < d.LoTokens; i++ {
			if err := readTok(hc, kvcache.LevelLo, cfg.LoPrec.KeyBytes(cfg.Dim), cfg.LoPrec.ValBytes(cfg.Dim)); err != nil {
				return cleanup(err)
			}
		}
	}
	if off != len(snap) {
		return cleanup(fmt.Errorf("offload: swap payload has %d trailing bytes", len(snap)-off))
	}
	return nil
}
