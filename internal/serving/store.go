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
	// must fit beside those of prompting, the running members whose
	// prompt has not run yet.
	promptFits(cand *seqState, prompting []*seqState) bool
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
// fractions into the manager's draws. It owns the engine's only RNG.
// Which draw of the stream feeds which decision is part of the simulated
// behaviour: register draws hi then lo per head in head order; gen gives
// each sequence whose window has filled one draw per head, and indexes
// them by stream position — sequence i's head h takes draw
// (heads × drawing sequences before i) + h of the step — not by the time
// a worker happens to draw them. gen hands the manager the store itself
// as its kvcache.GenSource: the store names each sequence's first draw
// and its heads' thresholds, the manager reads the draws by index on the
// worker that plans the sequence, and the stream Advances past the step's
// draws only once the manager call has returned, failed or not: a failed
// call reads each sequence's draws again to undo it. These positions are
// the ones the float tier test u < hiF, u < hiF+loF read before the
// thresholds replaced it; a threshold places every draw where that test
// did (kvcache.NewTierThresholds), so every count and digest stays.
type pageStore struct {
	mgr            *kvcache.Manager
	dev            *gpusim.Device
	rng            *mathx.RNG
	hiFrac, loFrac float64
	heads          int
	capHi          int     // tokens per high-precision page
	blendTok       float64 // one head's KV bytes per cached token at the configured mix

	// step scratch, reused so the steady state allocates nothing
	headDemand []kvcache.HeadDemand
	genIDs     []int
	genSeqs    []*seqState // the step's records, while the manager draws them
	genAt      []int       // each sequence's first draw of the step
	genDraws   int         // the step's draws: heads × drawing sequences
}

func newPageStore(cfg Config, mgr *kvcache.Manager) *pageStore {
	mc := mgr.Config()
	heads := cfg.Model.Layers * cfg.Model.KVHeads
	return &pageStore{
		mgr: mgr, dev: cfg.Cluster.Device, rng: mathx.NewRNG(cfg.Seed + 99),
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
	st.frac, st.thr = make([]float64, 2*s.heads), nil
	hiF, loF := st.fractions()
	for h := range hiF {
		hiF[h] = mathx.Clamp(s.hiFrac*s.rng.LogNorm(0, 0.3), 0.02, 0.9)
		loF[h] = mathx.Clamp(s.loFrac*s.rng.LogNorm(0, 0.3), 0, 0.9-hiF[h])
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
func (s *pageStore) promptFits(cand *seqState, prompting []*seqState) bool {
	reserved := s.promptPages(cand.req.PromptLen)
	for _, st := range prompting {
		reserved += s.promptPages(st.req.PromptLen)
	}
	return reserved <= s.mgr.FreePages()*9/10
}

func (s *pageStore) promptPages(promptLen int) int {
	return (promptLen + s.capHi - 1) / s.capHi * s.heads
}

func (s *pageStore) prompt(st *seqState) (kvcache.CompactStats, error) {
	demands, n := s.headDemand, float64(st.req.PromptLen)
	hiF, loF := st.fractions()
	for h := range demands {
		demands[h] = kvcache.HeadDemand{HiTokens: int(hiF[h] * n), LoTokens: int(loF[h] * n)}
	}
	return s.mgr.PromptCompact(st.req.ID, st.req.PromptLen, demands)
}

func (s *pageStore) memMgmtTime(work kvcache.CompactStats, _ int) gpusim.Micros {
	return s.dev.GPUCompaction(work.TokenOps, work.Regions)
}

// genWindow is the recent window of uncompressed tokens a sequence fills
// before the compression policy places any (the policy's Window, 64 for
// every model's parameters): until a sequence has generated that many
// tokens, a step adds its token to the window and draws no tier for it.
const genWindow = 64

func (s *pageStore) gen(seqs []*seqState) (gpusim.Micros, error) {
	n := len(seqs)
	if cap(s.genIDs) < n {
		s.genIDs = make([]int, n)
		s.genAt = make([]int, n)
	}
	ids, at := s.genIDs[:n], s.genAt[:n]
	draws := 0
	for i, st := range seqs {
		ids[i] = st.req.ID
		at[i] = draws
		if st.winFill >= genWindow {
			draws += s.heads
			if st.thr == nil {
				st.thr = thresholds(st.fractions())
			}
		}
	}
	s.genSeqs, s.genDraws = seqs, draws
	work, err := s.mgr.GenCompactFrom(ids, s)
	s.genSeqs = nil // the scratch holds no record past the step
	s.rng.Advance(uint64(draws))
	if err != nil {
		return 0, err
	}
	for _, st := range seqs {
		if st.winFill < genWindow {
			st.winFill++
		}
	}
	return s.memMgmtTime(work, n), nil
}

// thresholds turns a sequence's tier fractions into its heads' integer
// tier tests. A sequence gets them at its first draw, once: its fractions
// change only when register draws new ones or allLow moves them, and
// both drop the old thresholds.
func thresholds(hiF, loF []float64) []kvcache.TierThresholds {
	thr := make([]kvcache.TierThresholds, len(hiF))
	for h := range thr {
		thr[h] = kvcache.NewTierThresholds(hiF[h], loF[h])
	}
	return thr
}

// GenDraws is the manager's source for the step gen runs. A sequence
// whose window has not filled draws nothing. One whose window has filled
// draws one Uint64 per head from the store's stream: head h reads draw
// at+h of this step by index, at its first draw of the step, so no RNG
// state is carried from head to head, and its candidate lands in the high
// tier when the draw is below its Hi threshold, else in the low tier when
// below Any; victims keep counts roughly stable. The store's stream
// itself does not move, so a second call for the same sequence answers
// the same.
func (s *pageStore) GenDraws(i int) (mathx.RNG, []kvcache.TierThresholds, bool) {
	st := s.genSeqs[i]
	if st.winFill < genWindow {
		return mathx.RNG{}, nil, false
	}
	return s.rng.Ahead(uint64(s.genAt[i])), st.thr, true
}

// DrawHeads is the step's draw count: the manager fans the step out on
// the heads that draw, not on the batch, so a batch whose windows have
// not filled stays on the calling goroutine.
func (s *pageStore) DrawHeads() int { return s.genDraws }

func (s *pageStore) release(st *seqState) error { return s.mgr.ReleaseSequence(st.req.ID) }

func (s *pageStore) shape(st *seqState) ([]kvcache.HeadDemand, error) {
	return s.mgr.HeadCounts(st.req.ID, nil)
}

func (s *pageStore) adopt(st *seqState, counts []kvcache.HeadDemand) error {
	err := s.mgr.AdoptCounts(st.req.ID, counts)
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
