package serving

// The KV seam. The scheduler never asks which kind of KV memory it runs
// on: every question it has — may this prompt be admitted, run it, run a
// generation step, what did that cost, give the memory back, what does
// the sequence weigh — goes through kvStore with the request record.
// NewEngine picks the implementation once: a pageStore over the real
// kvcache.Manager (DiffKV) or a countStore whose answers are arithmetic
// (baselines, whose capacity the engine's token gate already bounds).
// The host tier is not behind the seam: swap and prefix-spill traffic is
// the engine's own business with offload.TieredStore, which wraps the
// same manager the pageStore holds.

import (
	"diffkv/internal/gpusim"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
)

type kvStore interface {
	// register gives an admitted record its KV identity.
	register(st *seqState) error
	// promptFits is the page-granular half of admission: cand's prompt
	// must fit beside the prompts in running that have not run yet.
	promptFits(cand *seqState, running []*seqState) bool
	// prompt runs one sequence's prompt-phase compaction; a failed call
	// (out of pages) leaves the store as it was. memMgmtTime prices the
	// summed work of a prompt batch.
	prompt(st *seqState) (kvcache.CompactStats, error)
	memMgmtTime(work kvcache.CompactStats, batch int) gpusim.Micros
	// gen appends one token to every sequence of a generation batch, all
	// or nothing, and returns the step's memory-management time.
	gen(seqs []*seqState) (gpusim.Micros, error)
	// release returns everything a registered sequence holds.
	release(st *seqState) error
	// shape reads a sequence's per-head tier shape for the disaggregated
	// handoff; adopt rebuilds it on the receiving store.
	shape(st *seqState) ([]kvcache.HeadDemand, error)
	adopt(st *seqState, counts []kvcache.HeadDemand) error
	// kvBytes is a resident sequence's footprint; estBytes prices a token
	// count at the configured mix.
	kvBytes(st *seqState) int64
	estBytes(tokens int) int64
	// pages reports page-pool occupancy (zero for a store without pages).
	pages() (free, used int)
}

// countStore is the baselines' KV memory: resident bytes per cached token
// is all it knows, nothing can fail at step time and no RNG is drawn.
type countStore struct {
	kvToken float64
}

func (countStore) register(*seqState) error                      { return nil }
func (countStore) promptFits(*seqState, []*seqState) bool        { return true }
func (countStore) release(*seqState) error                       { return nil }
func (countStore) shape(*seqState) ([]kvcache.HeadDemand, error) { return nil, nil }
func (countStore) adopt(*seqState, []kvcache.HeadDemand) error   { return nil }
func (countStore) pages() (free, used int)                       { return 0, 0 }

func (countStore) prompt(*seqState) (kvcache.CompactStats, error) {
	return kvcache.CompactStats{}, nil
}

// paged FP16 allocator, prompt step
func (countStore) memMgmtTime(_ kvcache.CompactStats, batch int) gpusim.Micros {
	return gpusim.Micros(20 + 2*float64(batch))
}

func (countStore) gen(seqs []*seqState) (gpusim.Micros, error) {
	return gpusim.Micros(10 + float64(len(seqs))), nil
}

func (s countStore) kvBytes(st *seqState) int64 { return s.estBytes(st.tokens()) }
func (s countStore) estBytes(tokens int) int64  { return int64(float64(tokens) * s.kvToken) }

// pageStore is DiffKV's KV memory: the counts-mode page manager does the
// real compaction work, and the store turns a record's per-head tier
// fractions into the manager's demands. It owns the engine's only RNG.
// Draw order is part of the simulated behaviour: register draws hi then
// lo per head in head order; gen draws one Float64 per head per sequence
// in batch order, and only for sequences whose window has filled.
type pageStore struct {
	mgr            *kvcache.Manager
	dev            *gpusim.Device
	rng            *mathx.RNG
	onCPU          bool // price compaction on the multithreaded CPU comparator
	hiFrac, loFrac float64
	heads          int
	capHi          int     // tokens per high-precision page
	blendTok       float64 // one head's KV bytes per cached token at the configured mix

	// step scratch, reused so the steady state allocates nothing
	headDemand []kvcache.HeadDemand
	genIDs     []int
	genDemands [][]kvcache.GenDemand
	genFlat    []kvcache.GenDemand
}

func newPageStore(cfg Config, mgr *kvcache.Manager) *pageStore {
	mc := mgr.Config()
	heads := cfg.Model.Layers * cfg.Model.KVHeads
	return &pageStore{
		mgr: mgr, dev: cfg.Cluster.Device, rng: mathx.NewRNG(cfg.Seed + 99), onCPU: cfg.OnCPUMemMgr,
		hiFrac: cfg.HiFrac, loFrac: cfg.LoFrac, heads: heads, capHi: mgr.TokensPerHiPage(),
		blendTok: cfg.HiFrac*float64(mc.HiPrec.TokenBytes(mc.Dim)) +
			cfg.LoFrac*float64(mc.LoPrec.TokenBytes(mc.Dim)),
		headDemand: make([]kvcache.HeadDemand, heads),
	}
}

// register draws the sequence's per-head tier fractions and registers it
// with the manager.
func (s *pageStore) register(st *seqState) error {
	if _, err := s.mgr.AddSequence(st.req.ID, s.heads); err != nil {
		return err
	}
	f := make([]float64, 2*s.heads)
	st.hiF, st.loF = f[:s.heads:s.heads], f[s.heads:]
	for h := range st.hiF {
		st.hiF[h] = mathx.Clamp(s.hiFrac*s.rng.LogNorm(0, 0.3), 0.02, 0.9)
		st.loF[h] = mathx.Clamp(s.loFrac*s.rng.LogNorm(0, 0.3), 0, 0.9-st.hiF[h])
	}
	if st.brownout {
		st.allLow()
	}
	return nil
}

// promptFits holds PromptCompact's conservative allocation (every head at
// ceil(prompt/capHi) pages) against the free pool: a prompt that cannot
// get it would only bounce off a prompt preemption, and queueing the
// request is strictly better than admitting and restarting it.
func (s *pageStore) promptFits(cand *seqState, running []*seqState) bool {
	reserved := s.promptPages(cand.req.PromptLen)
	for _, st := range running {
		if !st.promptDone {
			reserved += s.promptPages(st.req.PromptLen)
		}
	}
	return reserved <= s.mgr.FreePages()*9/10
}

func (s *pageStore) promptPages(promptLen int) int {
	return (promptLen + s.capHi - 1) / s.capHi * s.heads
}

func (s *pageStore) prompt(st *seqState) (kvcache.CompactStats, error) {
	demands, n := s.headDemand, float64(st.req.PromptLen)
	for h := range demands {
		demands[h] = kvcache.HeadDemand{HiTokens: int(st.hiF[h] * n), LoTokens: int(st.loF[h] * n)}
	}
	return s.mgr.PromptCompact(st.req.ID, st.req.PromptLen, demands)
}

func (s *pageStore) memMgmtTime(work kvcache.CompactStats, batch int) gpusim.Micros {
	if s.onCPU {
		return s.dev.CPUMemoryManagement(work.TokenOps, work.Regions, batch)
	}
	return s.dev.GPUCompaction(work.TokenOps, work.Regions)
}

func (s *pageStore) gen(seqs []*seqState) (gpusim.Micros, error) {
	n := len(seqs)
	if cap(s.genIDs) < n {
		s.genIDs = make([]int, n)
		s.genDemands = make([][]kvcache.GenDemand, n)
		s.genFlat = make([]kvcache.GenDemand, n*s.heads)
	}
	ids, demands := s.genIDs[:n], s.genDemands[:n]
	for i, st := range seqs {
		ids[i] = st.req.ID
		d := s.genFlat[i*s.heads : (i+1)*s.heads]
		if st.winFill < 64 {
			clear(d)
		} else {
			for h := range d {
				// steady state: the candidate lands by tier probability;
				// victims keep counts roughly stable
				u := s.rng.Float64()
				switch {
				case u < st.hiF[h]:
					d[h] = kvcache.GenDemand{HiDelta: 1}
				case u < st.hiF[h]+st.loF[h]:
					d[h] = kvcache.GenDemand{LoDelta: 1}
				default:
					d[h] = kvcache.GenDemand{}
				}
			}
		}
		demands[i] = d
	}
	work, err := s.mgr.GenCompact(ids, demands)
	if err != nil {
		return 0, err
	}
	for _, st := range seqs {
		if st.winFill < 64 {
			st.winFill++
		}
	}
	return s.memMgmtTime(work, n), nil
}

func (s *pageStore) release(st *seqState) error { return s.mgr.ReleaseSequence(st.req.ID) }

func (s *pageStore) shape(st *seqState) ([]kvcache.HeadDemand, error) {
	return s.mgr.HeadCounts(st.req.ID, nil)
}

func (s *pageStore) adopt(st *seqState, counts []kvcache.HeadDemand) error {
	_, err := s.mgr.AdoptCounts(st.req.ID, counts)
	return err
}

// kvBytes is exact from the manager's byte accounting.
func (s *pageStore) kvBytes(st *seqState) int64 {
	if b, err := s.mgr.SeqKVBytes(st.req.ID); err == nil {
		return b
	}
	return s.estBytes(st.tokens())
}

// estBytes keeps the evaluation order tokens × blendTok × heads: the
// product is truncated to bytes, so reassociating it moves digests.
func (s *pageStore) estBytes(tokens int) int64 {
	return int64(float64(tokens) * s.blendTok * float64(s.heads))
}

func (s *pageStore) pages() (free, used int) { return s.mgr.FreePages(), s.mgr.UsedPages() }
