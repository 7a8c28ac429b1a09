// Package offload implements the host-memory KV tier layered under the
// paged kvcache.Manager: swap-instead-of-recompute preemption, spillover of
// evicted prefix-cache entries, and the accounting (swap bytes, thrashing,
// host prefix hits) the serving and cluster layers surface.
//
// The design follows the two related systems the ROADMAP names:
// inference-sim's TieredKVCache (a GPU+CPU two-tier store behind one store
// interface, with transfer-latency accounting and thrashing metrics) and
// llm-d's kv-cache-manager (a host-memory prefix tier consulted on
// admission). DiffKV's contribution composes with both: compressed tiers
// move fewer bytes, so its compression directly cuts the PCIe cost of
// every swap.
//
// Timing is never measured here — swap operations return byte counts that
// the gpusim cost model (Device.PCIeTransfer / TransferStall) converts to
// simulated time, mirroring the kvcache/gpusim split.
package offload

import "diffkv/internal/kvcache"

// KVStore is the store interface the serving engine schedules against: the
// GPU-only kvcache.Manager and the TieredStore are interchangeable behind
// it. The tiered store adds swap and prefix-spill operations on top.
type KVStore interface {
	// AddSequence registers a sequence with numHeads KV heads.
	AddSequence(id, numHeads int) (*kvcache.SeqCache, error)
	// ReleaseSequence recycles every page of a finished sequence.
	ReleaseSequence(id int) error
	// PromptCompact runs the prompt-phase compaction workflow.
	PromptCompact(seqID, promptLen int, demands []kvcache.HeadDemand) (kvcache.CompactStats, error)
	// GenCompact runs one generation-step compaction for a set of sequences.
	GenCompact(seqIDs []int, demands [][]kvcache.GenDemand) (kvcache.CompactStats, error)
	// HeadCounts / AdoptCounts read a sequence's per-head tier shape and
	// rebuild it on another store (the disaggregated handoff); SeqKVBytes
	// is the sequence's resident footprint at its quantized size.
	HeadCounts(seqID int, buf []kvcache.HeadDemand) ([]kvcache.HeadDemand, error)
	AdoptCounts(seqID int, demands []kvcache.HeadDemand) (kvcache.CompactStats, error)
	SeqKVBytes(seqID int) (int64, error)
	// FreePages / UsedPages report GPU page-pool occupancy.
	FreePages() int
	UsedPages() int
	// Config returns the underlying manager configuration.
	Config() kvcache.Config
}

var (
	_ KVStore = (*kvcache.Manager)(nil)
	_ KVStore = (*TieredStore)(nil)
)
