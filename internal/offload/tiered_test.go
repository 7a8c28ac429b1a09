package offload

import (
	"testing"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

func countsManager(t *testing.T, numPages int) *kvcache.Manager {
	t.Helper()
	m, err := kvcache.NewManager(kvcache.Config{
		Dim: 128, PageBytes: 8192, NumPages: numPages, MaxSeqLen: 8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tiered(t *testing.T, mgr *kvcache.Manager, hostBytes int64) *TieredStore {
	t.Helper()
	ts, err := NewTieredStore(mgr, Config{HostBytes: hostBytes})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// registerSeq registers a counts-mode sequence holding the given per-head
// tier counts.
func registerSeq(t *testing.T, ts *TieredStore, id, heads, hi, lo int) {
	t.Helper()
	if _, err := ts.AddSequence(id, heads); err != nil {
		t.Fatal(err)
	}
	demands := make([]kvcache.HeadDemand, heads)
	for i := range demands {
		demands[i] = kvcache.HeadDemand{HiTokens: hi, LoTokens: lo}
	}
	if _, err := ts.PromptCompact(id, hi+lo, demands); err != nil {
		t.Fatal(err)
	}
}

// TestNoDoubleResidency asserts the core tiered-store invariant: a
// sequence is resident in exactly one tier at any time, and its GPU pages
// are fully released while host-resident.
func TestNoDoubleResidency(t *testing.T) {
	ts := tiered(t, countsManager(t, 256), 64<<20)
	registerSeq(t, ts, 1, 4, 100, 200)
	used := ts.UsedPages()
	if used == 0 {
		t.Fatal("sequence should hold GPU pages")
	}

	res, err := ts.SwapOut(1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes <= 0 {
		t.Fatal("swap-out must move bytes")
	}
	if ts.UsedPages() != 0 {
		t.Fatalf("GPU pages remain after swap-out: %d", ts.UsedPages())
	}
	if _, ok := ts.Manager.Sequence(1); ok {
		t.Fatal("sequence still registered on GPU while host-resident")
	}
	if !ts.Swapped(1) || len(ts.seqs) != 1 {
		t.Fatal("sequence not recorded in host tier")
	}
	if ts.HostUsedBytes() != res.Bytes {
		t.Fatalf("host occupancy %d != swapped bytes %d", ts.HostUsedBytes(), res.Bytes)
	}
	// double swap-out must be rejected
	if _, err := ts.SwapOut(1, false, 0); err == nil {
		t.Fatal("double swap-out accepted")
	}

	in, err := ts.SwapIn(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.Bytes != res.Bytes {
		t.Fatalf("swap-in moved %d bytes, swap-out moved %d", in.Bytes, res.Bytes)
	}
	if ts.Swapped(1) || ts.HostUsedBytes() != 0 {
		t.Fatal("host copy must be dropped after swap-in")
	}
	if ts.UsedPages() != used {
		t.Fatalf("restored page count %d != original %d", ts.UsedPages(), used)
	}
	counts, err := ts.Manager.HeadCounts(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range counts {
		if d.HiTokens != 100 || d.LoTokens != 200 {
			t.Fatalf("head %d counts (%d,%d) after swap-in, want (100,200)", i, d.HiTokens, d.LoTokens)
		}
	}
}

// TestSwapInRestoresBitIdenticalPayload swaps a materialized sequence out
// and back in across every quant tier pair and asserts the restored pages
// carry bit-identical K/V bytes, metadata, scores and positions.
func TestSwapInRestoresBitIdenticalPayload(t *testing.T) {
	pairs := []struct{ hi, lo quant.Precision }{
		{quant.FP16, quant.FP16},
		{quant.K8V8, quant.K8V4},
		{quant.K8V4, quant.K4V2},
		{quant.K4V4, quant.K2V2},
	}
	type token struct {
		key, val []byte
		meta     [4]float32
		score    float32
		pos      int32
	}
	capture := func(hc *kvcache.HeadCache) []token {
		var out []token
		for _, lvl := range []kvcache.Level{kvcache.LevelHi, kvcache.LevelLo} {
			hc.ForEachToken(lvl, func(p *kvcache.Page, slot int) {
				kd, ks, kz := p.KeyData(slot)
				vd, vs, vz := p.ValData(slot)
				out = append(out, token{
					key: append([]byte(nil), kd...), val: append([]byte(nil), vd...),
					meta: [4]float32{ks, kz, vs, vz}, score: p.Score(slot), pos: p.Position(slot),
				})
			})
		}
		return out
	}
	for _, pair := range pairs {
		mgr, err := kvcache.NewManager(kvcache.Config{
			Dim: 64, PageBytes: 8192, NumPages: 128, MaxSeqLen: 4096,
			HiPrec: pair.hi, LoPrec: pair.lo, Materialize: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := tiered(t, mgr, 64<<20)
		sc, err := ts.AddSequence(1, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(7)
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
		before := [][]token{capture(sc.Heads[0]), capture(sc.Heads[1])}

		if _, err := ts.SwapOut(1, false, 0); err != nil {
			t.Fatalf("%s/%s: %v", pair.hi, pair.lo, err)
		}
		if _, err := ts.SwapIn(1, 0); err != nil {
			t.Fatalf("%s/%s: %v", pair.hi, pair.lo, err)
		}
		restored, _ := ts.Manager.Sequence(1)
		for h := range before {
			after := capture(restored.Heads[h])
			if len(after) != len(before[h]) {
				t.Fatalf("%s/%s head %d: %d tokens restored, want %d",
					pair.hi, pair.lo, h, len(after), len(before[h]))
			}
			for i := range after {
				a, b := after[i], before[h][i]
				if string(a.key) != string(b.key) || string(a.val) != string(b.val) ||
					a.meta != b.meta || a.score != b.score || a.pos != b.pos {
					t.Fatalf("%s/%s head %d token %d: payload not bit-identical", pair.hi, pair.lo, h, i)
				}
			}
		}
	}
}

// TestThrashCounterMonotonic drives swap cycles inside and outside the
// thrash window: the counter must never decrease and must increment
// exactly on within-window swap-ins.
func TestThrashCounterMonotonic(t *testing.T) {
	mgr := countsManager(t, 256)
	ts, err := NewTieredStore(mgr, Config{HostBytes: 64 << 20, ThrashWindowUs: 1000})
	if err != nil {
		t.Fatal(err)
	}
	registerSeq(t, ts, 1, 2, 50, 50)
	prev := 0
	now := 0.0
	for i := 0; i < 10; i++ {
		if _, err := ts.SwapOut(1, false, now); err != nil {
			t.Fatal(err)
		}
		inWindow := i%2 == 0
		if inWindow {
			now += 500
		} else {
			now += 5000
		}
		if _, err := ts.SwapIn(1, now); err != nil {
			t.Fatal(err)
		}
		cur := ts.Metrics().ThrashEvents
		if cur < prev {
			t.Fatalf("thrash counter decreased: %d -> %d", prev, cur)
		}
		if inWindow && cur != prev+1 {
			t.Fatalf("in-window swap-in did not count as thrash: %d -> %d", prev, cur)
		}
		if !inWindow && cur != prev {
			t.Fatalf("out-of-window swap-in counted as thrash: %d -> %d", prev, cur)
		}
		prev = cur
	}
	m := ts.Metrics()
	if m.SwapIns != 10 || m.SwapOuts != 10 {
		t.Fatalf("swap counters (%d,%d), want (10,10)", m.SwapOuts, m.SwapIns)
	}
	if m.ThrashEvents != 5 {
		t.Fatalf("%d thrash events in 10 swap-ins, want 5", m.ThrashEvents)
	}
}

// TestHostCapacityPrefixEviction asserts the host-tier priority order:
// swapped sequences are pinned, spilled prefixes are evictable cache, and
// a swap that cannot fit even after evicting every prefix fails with
// ErrHostFull, leaving the sequence untouched on the GPU.
func TestHostCapacityPrefixEviction(t *testing.T) {
	ts := tiered(t, countsManager(t, 1024), 1<<20) // 1 MiB host tier
	registerSeq(t, ts, 1, 8, 200, 200)             // ~525 KiB of compressed KV

	// two prefix entries fill most of the tier; group 10 is older
	ts.SpillPrefix(10, 256, 400<<10, 0)
	ts.SpillPrefix(11, 256, 400<<10, 100)
	if ts.Metrics().PrefixSpills != 2 {
		t.Fatalf("spills = %d", ts.Metrics().PrefixSpills)
	}

	// swapping seq 1 (~a few hundred KiB) must evict the LRU prefix first
	res, err := ts.SwapOut(1, false, 200)
	if err != nil {
		t.Fatal(err)
	}
	if ts.HostPrefixTokens(10) != 0 {
		t.Fatal("LRU prefix should have been evicted for swap traffic")
	}
	if ts.HostPrefixTokens(11) == 0 {
		t.Fatal("MRU prefix should have survived")
	}

	// a sequence larger than the whole tier can never swap
	if _, err := ts.SwapIn(1, 200); err != nil {
		t.Fatal(err)
	}
	_ = res
	registerSeq(t, ts, 2, 64, 200, 200) // ~several MiB > 1 MiB tier
	used := ts.UsedPages()
	if _, err := ts.SwapOut(2, false, 300); err != ErrHostFull {
		t.Fatalf("want ErrHostFull, got %v", err)
	}
	if ts.UsedPages() != used {
		t.Fatal("failed swap-out must leave GPU pages untouched")
	}

	// spills beyond capacity are dropped, not partially stored
	drops := ts.Metrics().PrefixDrops
	ts.SpillPrefix(12, 1024, 2<<20, 400)
	if ts.Metrics().PrefixDrops != drops+1 {
		t.Fatal("oversized spill must be dropped")
	}

	// TakePrefix removes the entry and counts a hit
	tok, bytes, ok := ts.TakePrefix(11, 500)
	if !ok || tok != 256 || bytes != 400<<10 {
		t.Fatalf("TakePrefix = (%d,%d,%v)", tok, bytes, ok)
	}
	if _, _, ok := ts.TakePrefix(11, 500); ok {
		t.Fatal("prefix served twice")
	}
	if ts.Metrics().PrefixHits != 1 || ts.Metrics().PrefixHitTokens != 256 {
		t.Fatalf("hit accounting: %+v", ts.Metrics())
	}
}

// TestCompressSwapMovesFewerBytes pins the acceptance fact: swapping a
// compressed (K4V2) sequence moves fewer bytes than its FP16 equivalent,
// and compress-swap shrinks the transfer further by collapsing the high
// tier.
func TestCompressSwapMovesFewerBytes(t *testing.T) {
	swapBytes := func(hi, lo quant.Precision, compress bool) int64 {
		mgr, err := kvcache.NewManager(kvcache.Config{
			Dim: 128, PageBytes: 8192, NumPages: 2048, MaxSeqLen: 8192,
			HiPrec: hi, LoPrec: lo,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := tiered(t, mgr, 1<<30)
		registerSeq(t, ts, 1, 8, 512, 512)
		res, err := ts.SwapOut(1, compress, 0)
		if err != nil {
			t.Fatal(err)
		}
		if compress && res.RecompressBytes <= 0 {
			t.Fatal("compress-swap must charge a recompression pass")
		}
		return res.Bytes
	}
	fp16 := swapBytes(quant.FP16, quant.FP16, false)
	k4v2 := swapBytes(quant.K8V4, quant.K4V2, false)
	deeper := swapBytes(quant.K8V4, quant.K4V2, true)
	if k4v2 >= fp16 {
		t.Fatalf("compressed swap %d bytes >= FP16 swap %d bytes", k4v2, fp16)
	}
	if deeper >= k4v2 {
		t.Fatalf("compress-swap %d bytes >= plain compressed swap %d bytes", deeper, k4v2)
	}
}

// TestCompressSwapRestoresAllLow asserts the counts conversion: after a
// compress-swap round trip every token is in the low tier.
func TestCompressSwapRestoresAllLow(t *testing.T) {
	ts := tiered(t, countsManager(t, 512), 64<<20)
	registerSeq(t, ts, 1, 4, 100, 200)
	if _, err := ts.SwapOut(1, true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.SwapIn(1, 0); err != nil {
		t.Fatal(err)
	}
	counts, err := ts.Manager.HeadCounts(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range counts {
		if d.HiTokens != 0 || d.LoTokens != 300 {
			t.Fatalf("head %d counts (%d,%d), want (0,300)", i, d.HiTokens, d.LoTokens)
		}
	}
}

// TestSwapInFailureKeepsHostCopy asserts fail-safety: a swap-in that finds
// no GPU pages leaves the sequence in the host tier and retries cleanly.
func TestSwapInFailureKeepsHostCopy(t *testing.T) {
	ts := tiered(t, countsManager(t, 64), 64<<20)
	registerSeq(t, ts, 1, 4, 100, 100)
	if _, err := ts.SwapOut(1, false, 0); err != nil {
		t.Fatal(err)
	}
	// occupy most of the pool so the swap-in cannot allocate
	registerSeq(t, ts, 2, 4, 550, 0)
	if _, err := ts.SwapIn(1, 0); err == nil {
		t.Fatal("swap-in should fail without free pages")
	}
	if !ts.Swapped(1) {
		t.Fatal("failed swap-in dropped the host copy")
	}
	if err := ts.ReleaseSequence(2); err != nil {
		t.Fatal(err)
	}
	if _, err := ts.SwapIn(1, 0); err != nil {
		t.Fatalf("retry after release failed: %v", err)
	}
}

// TestSwapSteadyStateAllocs is the regression canary for the steady-state
// swap path (counts mode): one swap-out + swap-in cycle must stay within a
// fixed allocation budget. The dominant terms are the per-head page-table
// structures AddSequence rebuilds on swap-in; the tiered store itself
// recycles its host records and counts buffers.
func TestSwapSteadyStateAllocs(t *testing.T) {
	const heads = 8
	ts := tiered(t, countsManager(t, 512), 64<<20)
	registerSeq(t, ts, 1, heads, 100, 100)
	// warm the pools
	for i := 0; i < 3; i++ {
		if _, err := ts.SwapOut(1, false, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.SwapIn(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ts.SwapOut(1, false, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.SwapIn(1, 0); err != nil {
			t.Fatal(err)
		}
	})
	// budget: ~4 allocations per head (HeadCache, BiTable, slot array,
	// drain list) plus fixed map/slice overhead — regressions that add
	// per-token or per-page allocations trip this immediately
	budget := float64(6*heads + 24)
	if allocs > budget {
		t.Fatalf("swap cycle allocates %.0f, budget %.0f", allocs, budget)
	}
}
