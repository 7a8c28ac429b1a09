// Package offload implements the host-memory KV tier layered under the
// paged kvcache.Manager: swap-instead-of-recompute preemption, spillover of
// evicted prefix-cache entries, and the accounting (swap bytes, thrashing,
// host prefix hits) the serving and cluster layers surface.
//
// The design follows the two related systems the ROADMAP names:
// inference-sim's TieredKVCache (a GPU+CPU two-tier store, with
// transfer-latency accounting and thrashing metrics) and llm-d's
// kv-cache-manager (a host-memory prefix tier consulted on admission).
// DiffKV's contribution composes with both: compressed tiers move fewer
// bytes, so its compression directly cuts the PCIe cost of every swap.
//
// Timing is never measured here — swap operations return byte counts that
// the gpusim cost model (Device.PCIeTransfer / TransferStall) converts to
// simulated time, mirroring the kvcache/gpusim split.
package offload

import (
	"errors"
	"fmt"
	"math"

	"diffkv/internal/kvcache"
)

// ErrHostFull is returned when a swap-out cannot fit the host tier even
// after evicting every spilled prefix; the caller falls back to recompute
// preemption.
var ErrHostFull = errors.New("offload: host tier full")

// Config parameterizes the tiered store.
type Config struct {
	// HostBytes is the host-memory tier capacity. Swapped sequences are
	// pinned (they must come back); spilled prefix entries are evictable
	// cache and yield to swap traffic.
	HostBytes int64
	// ThrashWindowUs classifies a swap-in occurring within this window of
	// the sequence's swap-out as thrashing — the swap-out was wasted PCIe
	// traffic. Default 1e6 (1 simulated second).
	ThrashWindowUs float64
}

func (c *Config) validate() error {
	if c.HostBytes <= 0 {
		return fmt.Errorf("offload: HostBytes must be positive")
	}
	if c.ThrashWindowUs <= 0 {
		c.ThrashWindowUs = 1e6
	}
	return nil
}

// SwapResult reports the work of one swap operation.
type SwapResult struct {
	// Bytes is the KV payload+metadata moved over PCIe.
	Bytes int64
	// RecompressBytes is the device memory touched by the
	// compress-deeper pass before a compress-swap (0 otherwise); the
	// compressor kernel converts it to time.
	RecompressBytes int64
}

// Metrics accumulates host-tier activity. All counters are monotonic.
type Metrics struct {
	SwapOuts     int
	SwapIns      int
	SwapOutBytes int64
	SwapInBytes  int64
	// ThrashEvents counts swap-ins within ThrashWindowUs of the matching
	// swap-out (monotonic; see ThrashRate).
	ThrashEvents int
	// PrefixSpills / PrefixHits / PrefixDrops count prefix-cache entries
	// spilled into the host tier, served back from it, and dropped for
	// lack of host capacity.
	PrefixSpills    int
	PrefixHits      int
	PrefixDrops     int
	PrefixHitTokens int64
	// HostBytesPeak is the high-water mark of host-tier occupancy.
	HostBytesPeak int64
}

// hostSeq is one swapped-out sequence resident in host memory.
type hostSeq struct {
	counts    []kvcache.HeadDemand
	bytes     int64
	swapOutUs float64
	snap      []byte // materialized payload snapshot (nil in counts mode)
}

// hostPrefix is one spilled prefix-cache entry.
type hostPrefix struct {
	tokens  int
	bytes   int64
	lastUse float64
}

// TieredStore layers a host-memory tier under a GPU kvcache.Manager. It
// embeds the manager (GPU operations pass through untouched) and adds
// swap-out/swap-in of whole sequences plus spillover of evicted
// prefix-cache entries. A TieredStore is single-goroutine, like the
// serving engine that owns it.
//
// Invariant: a sequence is resident in exactly one tier. SwapOut releases
// every GPU page before the host copy becomes visible; SwapIn removes the
// host copy only after the GPU restore succeeds.
type TieredStore struct {
	*kvcache.Manager
	cfg      Config
	hostUsed int64
	seqs     map[int]*hostSeq
	prefixes map[int]*hostPrefix
	m        Metrics
	seqPool  []*hostSeq // recycled hostSeq records (steady-state swap path)
}

// NewTieredStore wraps mgr with a host tier of cfg.HostBytes.
func NewTieredStore(mgr *kvcache.Manager, cfg Config) (*TieredStore, error) {
	if mgr == nil {
		return nil, fmt.Errorf("offload: manager is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &TieredStore{
		Manager:  mgr,
		cfg:      cfg,
		seqs:     make(map[int]*hostSeq),
		prefixes: make(map[int]*hostPrefix),
	}, nil
}

// Metrics snapshots the accumulated host-tier counters.
func (t *TieredStore) Metrics() Metrics { return t.m }

// HostUsedBytes returns current host-tier occupancy.
//
//diffkv:allow deadcode -- tests see host-tier byte conservation through it: occupancy equals the bytes swapped out and returns to zero once every sequence is back, cancelled or crashed
func (t *TieredStore) HostUsedBytes() int64 { return t.hostUsed }

// Swapped reports whether seqID is resident in the host tier.
func (t *TieredStore) Swapped(seqID int) bool {
	_, ok := t.seqs[seqID]
	return ok
}

// reserve makes room for need bytes by evicting spilled prefixes in LRU
// order (swapped sequences are pinned). Reports whether the reservation
// fits.
func (t *TieredStore) reserve(need int64) bool {
	if need > t.cfg.HostBytes {
		return false
	}
	for t.hostUsed+need > t.cfg.HostBytes {
		victim, victimT := -1, math.Inf(1)
		//diffkv:allow maprange -- min-scan with total-order tie-break (lastUse, then lowest group): same victim whatever the walk order
		for g, p := range t.prefixes {
			if p.lastUse < victimT || (p.lastUse == victimT && (victim == -1 || g < victim)) {
				victim, victimT = g, p.lastUse
			}
		}
		if victim < 0 {
			return false
		}
		t.hostUsed -= t.prefixes[victim].bytes
		delete(t.prefixes, victim)
	}
	return true
}

func (t *TieredStore) charge(bytes int64) {
	t.hostUsed += bytes
	if t.hostUsed > t.m.HostBytesPeak {
		t.m.HostBytesPeak = t.hostUsed
	}
}

// SwapOut moves a GPU-resident sequence to the host tier, freeing all its
// GPU pages. With compress set, the sequence is first re-quantized
// entirely into the low-precision tier (DiffKV's compress-deeper-then-swap
// recovery): fewer bytes cross PCIe, at the cost of one compressor pass
// whose touched bytes are reported in SwapResult.RecompressBytes.
// Counts-only managers support both paths; materialized managers support
// plain swap via snapshot serialization. On ErrHostFull the sequence stays
// on the GPU untouched.
func (t *TieredStore) SwapOut(seqID int, compress bool, nowUs float64) (SwapResult, error) {
	if t.Swapped(seqID) {
		return SwapResult{}, fmt.Errorf("offload: sequence %d already swapped out", seqID)
	}
	hs := t.getHostSeq()
	counts, err := t.Manager.HeadCounts(seqID, hs.counts)
	if err != nil {
		t.putHostSeq(hs)
		return SwapResult{}, err
	}
	hs.counts = counts

	cfg := t.Manager.Config()
	var res SwapResult
	if compress {
		if cfg.Materialize {
			t.putHostSeq(hs)
			return SwapResult{}, fmt.Errorf("offload: compress-swap requires a counts-only manager")
		}
		// re-quantize the high tier down: every token leaves at LoPrec
		loTok := int64(cfg.LoPrec.TokenBytes(cfg.Dim))
		hiTok := int64(cfg.HiPrec.TokenBytes(cfg.Dim))
		for i, d := range counts {
			res.Bytes += int64(d.HiTokens+d.LoTokens) * loTok
			res.RecompressBytes += int64(d.HiTokens) * (hiTok + loTok)
			hs.counts[i] = kvcache.HeadDemand{LoTokens: d.HiTokens + d.LoTokens}
		}
	} else {
		b, err := t.Manager.SeqKVBytes(seqID)
		if err != nil {
			t.putHostSeq(hs)
			return SwapResult{}, err
		}
		res.Bytes = b
	}
	if !t.reserve(res.Bytes) {
		t.putHostSeq(hs)
		return SwapResult{}, ErrHostFull
	}
	if cfg.Materialize {
		snap, err := captureRaw(t.Manager, seqID)
		if err != nil {
			t.putHostSeq(hs)
			return SwapResult{}, err
		}
		hs.snap = snap
	}
	if err := t.Manager.ReleaseSequence(seqID); err != nil {
		t.putHostSeq(hs)
		return SwapResult{}, err
	}
	hs.bytes = res.Bytes
	hs.swapOutUs = nowUs
	t.seqs[seqID] = hs
	t.charge(res.Bytes)
	t.m.SwapOuts++
	t.m.SwapOutBytes += res.Bytes
	return res, nil
}

// SwapIn restores a host-resident sequence onto the GPU: pages are
// re-allocated to the exact pre-swap shape (counts mode) or the payload
// snapshot is deserialized bit-identically (materialized mode). The host
// copy is dropped only after the restore succeeds, so a failed swap-in
// (out of GPU pages) leaves the sequence safely in the host tier.
func (t *TieredStore) SwapIn(seqID int, nowUs float64) (SwapResult, error) {
	hs, ok := t.seqs[seqID]
	if !ok {
		return SwapResult{}, fmt.Errorf("offload: sequence %d not in host tier", seqID)
	}
	if t.Manager.Config().Materialize {
		if err := restoreRaw(t.Manager, seqID, hs.counts, hs.snap); err != nil {
			return SwapResult{}, err
		}
	} else {
		if _, err := t.Manager.AdoptCounts(seqID, hs.counts); err != nil {
			return SwapResult{}, err
		}
	}
	delete(t.seqs, seqID)
	t.hostUsed -= hs.bytes
	t.m.SwapIns++
	t.m.SwapInBytes += hs.bytes
	if nowUs-hs.swapOutUs <= t.cfg.ThrashWindowUs {
		t.m.ThrashEvents++
	}
	res := SwapResult{Bytes: hs.bytes}
	t.putHostSeq(hs)
	return res, nil
}

// Drop discards a host-resident sequence without restoring it to the
// GPU — the cancellation path: a swapped-out request that will never
// resume must release its pinned host bytes immediately. Reports whether
// the sequence was host-resident.
func (t *TieredStore) Drop(seqID int) bool {
	hs, ok := t.seqs[seqID]
	if !ok {
		return false
	}
	delete(t.seqs, seqID)
	t.hostUsed -= hs.bytes
	t.putHostSeq(hs)
	return true
}

// SpillPrefix stores an evicted prefix-cache entry (group → tokens worth
// bytes of compressed KV) in the host tier instead of discarding it.
// Spills are cache, not pinned state: they evict LRU among themselves and
// are dropped outright when swap traffic has filled the tier.
func (t *TieredStore) SpillPrefix(group, tokens int, bytes int64, nowUs float64) {
	if group == 0 || tokens <= 0 || bytes <= 0 {
		return
	}
	if old, ok := t.prefixes[group]; ok {
		t.hostUsed -= old.bytes
		delete(t.prefixes, group)
	}
	if !t.reserve(bytes) {
		t.m.PrefixDrops++
		return
	}
	t.prefixes[group] = &hostPrefix{tokens: tokens, bytes: bytes, lastUse: nowUs}
	t.charge(bytes)
	t.m.PrefixSpills++
}

// TakePrefix removes and returns a host-resident prefix entry — the
// admission path promotes it back to the GPU prefix cache, paying the H2D
// transfer for the returned bytes.
func (t *TieredStore) TakePrefix(group int, nowUs float64) (tokens int, bytes int64, ok bool) {
	p, found := t.prefixes[group]
	if !found {
		return 0, 0, false
	}
	delete(t.prefixes, group)
	t.hostUsed -= p.bytes
	t.m.PrefixHits++
	t.m.PrefixHitTokens += int64(p.tokens)
	return p.tokens, p.bytes, true
}

// HostPrefixTokens reports the resident token count of a spilled group
// without removing it (0 when absent).
func (t *TieredStore) HostPrefixTokens(group int) int {
	if p, ok := t.prefixes[group]; ok {
		return p.tokens
	}
	return 0
}

// getHostSeq / putHostSeq recycle hostSeq records so the steady-state swap
// path reuses its counts buffers instead of reallocating per cycle.
func (t *TieredStore) getHostSeq() *hostSeq {
	if n := len(t.seqPool); n > 0 {
		hs := t.seqPool[n-1]
		t.seqPool = t.seqPool[:n-1]
		return hs
	}
	return &hostSeq{}
}

func (t *TieredStore) putHostSeq(hs *hostSeq) {
	hs.counts = hs.counts[:0]
	hs.bytes, hs.swapOutUs, hs.snap = 0, 0, nil
	t.seqPool = append(t.seqPool, hs)
}
