package offload

import (
	"testing"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

// shipToken is one token's full physical payload for comparison.
type shipToken struct {
	key, val []byte
	meta     [4]float32
	score    float32
	pos      int32
}

func captureTokens(hc *kvcache.HeadCache) []shipToken {
	var out []shipToken
	for _, lvl := range []kvcache.Level{kvcache.LevelHi, kvcache.LevelLo} {
		hc.ForEachToken(lvl, func(p *kvcache.Page, slot int) {
			kd, ks, kz := p.KeyData(slot)
			vd, vs, vz := p.ValData(slot)
			out = append(out, shipToken{
				key: append([]byte(nil), kd...), val: append([]byte(nil), vd...),
				meta: [4]float32{ks, kz, vs, vz}, score: p.Score(slot), pos: p.Position(slot),
			})
		})
	}
	return out
}

// TestShipmentRestoresBitIdenticalKV pins the disaggregated handoff's
// correctness standard: a sequence captured on one (prefill) manager and
// restored into a different (decode) manager via the AppendRaw path
// carries bit-identical K/V bytes, quant metadata, scores and positions
// at every quant tier — the decode side resumes from exactly the pages
// the prefill side built, not a float-tolerant reconstruction.
func TestShipmentRestoresBitIdenticalKV(t *testing.T) {
	pairs := []struct{ hi, lo quant.Precision }{
		{quant.FP16, quant.FP16},
		{quant.K8V4, quant.K8V4},
		{quant.K8V4, quant.K4V2},
		{quant.K4V2, quant.K4V2},
	}
	for _, pair := range pairs {
		cfg := kvcache.Config{
			Dim: 64, PageBytes: 8192, NumPages: 128, MaxSeqLen: 4096,
			HiPrec: pair.hi, LoPrec: pair.lo, Materialize: true,
		}
		src, err := kvcache.NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dst, err := kvcache.NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := src.AddSequence(7, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(11)
		key := make([]float32, 64)
		val := make([]float32, 64)
		for h, hc := range sc.Heads {
			for i := 0; i < 150; i++ {
				rng.NormVec(key, 1)
				rng.NormVec(val, 1)
				lvl := kvcache.LevelHi
				if i%3 == 0 {
					lvl = kvcache.LevelLo
				}
				if err := hc.AppendToken(lvl, key, val, float32(rng.Float64()), int32(h*1000+i)); err != nil {
					t.Fatal(err)
				}
			}
		}

		counts, err := src.HeadCounts(7, nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", pair.hi, pair.lo, err)
		}
		payload, err := captureRaw(src, 7)
		if err != nil {
			t.Fatalf("%s/%s: %v", pair.hi, pair.lo, err)
		}
		if len(payload) == 0 || len(counts) != 2 {
			t.Fatalf("%s/%s: empty shipment (payload %d bytes, %d heads)",
				pair.hi, pair.lo, len(payload), len(counts))
		}
		if err := restoreRaw(dst, 7, counts, payload); err != nil {
			t.Fatalf("%s/%s: %v", pair.hi, pair.lo, err)
		}

		shipped, ok := dst.Sequence(7)
		if !ok {
			t.Fatalf("%s/%s: shipped sequence missing on decode side", pair.hi, pair.lo)
		}
		for h, hc := range sc.Heads {
			want := captureTokens(hc)
			got := captureTokens(shipped.Heads[h])
			if len(got) != len(want) {
				t.Fatalf("%s/%s head %d: %d tokens shipped, want %d",
					pair.hi, pair.lo, h, len(got), len(want))
			}
			for i := range got {
				a, b := got[i], want[i]
				if string(a.key) != string(b.key) || string(a.val) != string(b.val) ||
					a.meta != b.meta || a.score != b.score || a.pos != b.pos {
					t.Fatalf("%s/%s head %d token %d: shipped payload not bit-identical",
						pair.hi, pair.lo, h, i)
				}
			}
		}
		// occupancy transfers page-identically: byte accounting agrees
		srcBytes, err := src.SeqKVBytes(7)
		if err != nil {
			t.Fatal(err)
		}
		dstBytes, err := dst.SeqKVBytes(7)
		if err != nil {
			t.Fatal(err)
		}
		if srcBytes != dstBytes {
			t.Fatalf("%s/%s: decode-side KV bytes %d != prefill-side %d",
				pair.hi, pair.lo, dstBytes, srcBytes)
		}
	}
}

// TestShipmentPayloadCompression pins the economics the disagg
// experiment depends on: the same token population ships at most 1/3
// the FP16 payload when stored K4V2 (ISSUE acceptance: compressed
// cross-instance transfer is what makes disaggregation pay).
func TestShipmentPayloadCompression(t *testing.T) {
	sizeFor := func(hi, lo quant.Precision) int {
		mgr, err := kvcache.NewManager(kvcache.Config{
			Dim: 64, PageBytes: 8192, NumPages: 256, MaxSeqLen: 4096,
			HiPrec: hi, LoPrec: lo, Materialize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		sc, err := mgr.AddSequence(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(5)
		key := make([]float32, 64)
		val := make([]float32, 64)
		for _, hc := range sc.Heads {
			for i := 0; i < 256; i++ {
				rng.NormVec(key, 1)
				rng.NormVec(val, 1)
				if err := hc.AppendToken(kvcache.LevelHi, key, val, 1, int32(i)); err != nil {
					t.Fatal(err)
				}
			}
		}
		payload, err := captureRaw(mgr, 1)
		if err != nil {
			t.Fatal(err)
		}
		return len(payload)
	}
	fp16 := sizeFor(quant.FP16, quant.FP16)
	k4v2 := sizeFor(quant.K4V2, quant.K4V2)
	if 3*k4v2 > fp16 {
		t.Fatalf("K4V2 shipment %dB not <= 1/3 of FP16 %dB", k4v2, fp16)
	}
}
