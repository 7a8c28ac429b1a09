package kvcache

import (
	"encoding/binary"
	"fmt"
	"io"

	"diffkv/internal/quant"
)

// Snapshot serialization: a materialized sequence's compressed KV state
// can be written out and restored into another manager — the mechanism
// behind persistent prefix caches (serve a long system prompt once,
// reload its compressed KV on every restart). The format is
// little-endian, versioned, and self-describing per head.
//
// Layout:
//
//	magic "DKVS" | version u32 | dim u32 | numHeads u32
//	per head: hiPrec (2×u32) | loPrec (2×u32) |
//	          hiTokens u32 | loTokens u32 |
//	          per token: keyBytes | valBytes | kMeta 2×f32 |
//	                     vMeta 2×f32 | score f32 | pos i32
const (
	snapshotMagic   = "DKVS"
	snapshotVersion = 1
)

// WriteSnapshot serializes a sequence's cache state. The manager must be
// materialized.
func (m *Manager) WriteSnapshot(w io.Writer, seqID int) error {
	if !m.cfg.Materialize {
		return fmt.Errorf("kvcache: snapshots require a materialized manager")
	}
	sc, ok := m.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	if _, err := w.Write([]byte(snapshotMagic)); err != nil {
		return err
	}
	hdr := []uint32{snapshotVersion, uint32(m.cfg.Dim), uint32(len(sc.Heads))}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	for _, hc := range sc.Heads {
		if err := writeHead(w, m, hc); err != nil {
			return err
		}
	}
	return nil
}

func writeHead(w io.Writer, m *Manager, hc *HeadCache) error {
	cfg := m.cfg
	meta := []uint32{
		uint32(cfg.HiPrec.KeyBits), uint32(cfg.HiPrec.ValBits),
		uint32(cfg.LoPrec.KeyBits), uint32(cfg.LoPrec.ValBits),
		uint32(hc.HiTokens()), uint32(hc.LoTokens()),
	}
	if err := binary.Write(w, binary.LittleEndian, meta); err != nil {
		return err
	}
	var werr error
	dump := func(level Level) {
		hc.ForEachToken(level, func(p *Page, slot int) {
			if werr != nil {
				return
			}
			kd, ks, kz := p.KeyData(slot)
			vd, vs, vz := p.ValData(slot)
			if _, err := w.Write(kd); err != nil {
				werr = err
				return
			}
			if _, err := w.Write(vd); err != nil {
				werr = err
				return
			}
			tail := []float32{ks, kz, vs, vz, p.Score(slot)}
			if err := binary.Write(w, binary.LittleEndian, tail); err != nil {
				werr = err
				return
			}
			if err := binary.Write(w, binary.LittleEndian, p.Position(slot)); err != nil {
				werr = err
			}
		})
	}
	dump(LevelHi)
	dump(LevelLo)
	return werr
}

// ReadSnapshot restores a serialized sequence into this manager under
// seqID (which must not be registered yet). The manager's precision
// configuration must match the snapshot's.
func (m *Manager) ReadSnapshot(r io.Reader, seqID int) error {
	if !m.cfg.Materialize {
		return fmt.Errorf("kvcache: snapshots require a materialized manager")
	}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return fmt.Errorf("kvcache: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return fmt.Errorf("kvcache: bad snapshot magic %q", magic)
	}
	var hdr [3]uint32
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return err
	}
	if hdr[0] != snapshotVersion {
		return fmt.Errorf("kvcache: unsupported snapshot version %d", hdr[0])
	}
	if int(hdr[1]) != m.cfg.Dim {
		return fmt.Errorf("kvcache: snapshot dim %d, manager dim %d", hdr[1], m.cfg.Dim)
	}
	numHeads := int(hdr[2])
	sc, err := m.AddSequence(seqID, numHeads)
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		_ = m.ReleaseSequence(seqID)
		return err
	}
	dim := m.cfg.Dim
	keyBuf := make([]float32, dim)
	valBuf := make([]float32, dim)
	for h := 0; h < numHeads; h++ {
		var meta [6]uint32
		if err := binary.Read(r, binary.LittleEndian, &meta); err != nil {
			return cleanup(err)
		}
		hiPrec := quant.Precision{KeyBits: int(meta[0]), ValBits: int(meta[1])}
		loPrec := quant.Precision{KeyBits: int(meta[2]), ValBits: int(meta[3])}
		if hiPrec != m.cfg.HiPrec || loPrec != m.cfg.LoPrec {
			return cleanup(fmt.Errorf("kvcache: snapshot precisions %v/%v do not match manager %v/%v",
				hiPrec, loPrec, m.cfg.HiPrec, m.cfg.LoPrec))
		}
		hc := sc.Heads[h]
		load := func(level Level, prec quant.Precision, count int) error {
			kb := prec.KeyBytes(dim)
			vb := prec.ValBytes(dim)
			kd := make([]byte, kb)
			vd := make([]byte, vb)
			for tok := 0; tok < count; tok++ {
				if _, err := io.ReadFull(r, kd); err != nil {
					return err
				}
				if _, err := io.ReadFull(r, vd); err != nil {
					return err
				}
				var tail [5]float32
				if err := binary.Read(r, binary.LittleEndian, &tail); err != nil {
					return err
				}
				var pos int32
				if err := binary.Read(r, binary.LittleEndian, &pos); err != nil {
					return err
				}
				// reconstruct, then requantize into the manager's pages:
				// byte-identical because quantization is deterministic and
				// the grid points round-trip exactly
				quant.DequantizeInto(kd, prec.KeyBits, dim, tail[0], tail[1], keyBuf)
				quant.DequantizeInto(vd, prec.ValBits, dim, tail[2], tail[3], valBuf)
				if err := hc.AppendToken(level, keyBuf, valBuf, tail[4], pos); err != nil {
					return err
				}
			}
			return nil
		}
		if err := load(LevelHi, m.cfg.HiPrec, int(meta[4])); err != nil {
			return cleanup(err)
		}
		if err := load(LevelLo, m.cfg.LoPrec, int(meta[5])); err != nil {
			return cleanup(err)
		}
	}
	return nil
}
