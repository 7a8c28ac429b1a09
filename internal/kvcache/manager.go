package kvcache

import (
	"fmt"

	"diffkv/internal/mathx"
	"diffkv/internal/quant"
)

// Config parameterizes one memory manager (one worker's share of the KV
// cache, paper §6.1).
type Config struct {
	// Dim is the per-head feature dimension.
	Dim int
	// PageBytes is the fixed unified-page size.
	PageBytes int
	// NumPages is the total page count this manager owns.
	NumPages int
	// HiPrec and LoPrec are the two precision tiers (default K8V4 / K4V2).
	HiPrec, LoPrec quant.Precision
	// MaxSeqLen bounds page-table entry length.
	MaxSeqLen int
	// Materialize selects payload-carrying pages (accuracy experiments) vs
	// counts-only pages (serving scale).
	Materialize bool
}

// Validate fills defaults and checks invariants.
func (c *Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("kvcache: Dim must be positive")
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 8192
	}
	if c.NumPages <= 0 {
		return fmt.Errorf("kvcache: NumPages must be positive")
	}
	if c.HiPrec == (quant.Precision{}) {
		c.HiPrec = quant.K8V4
	}
	if c.LoPrec == (quant.Precision{}) {
		c.LoPrec = quant.K4V2
	}
	if !c.HiPrec.Valid() || !c.LoPrec.Valid() {
		return fmt.Errorf("kvcache: invalid precision configuration")
	}
	if c.HiPrec.TokenBytes(c.Dim) < c.LoPrec.TokenBytes(c.Dim) {
		return fmt.Errorf("kvcache: high-precision tokens must not be smaller than low-precision tokens")
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 8192
	}
	return nil
}

// Manager is one worker's KV-cache memory manager: a page pool, the
// circular free page list, and per-(sequence, head) bidirectional page
// tables.
//
// Every call that moves pages runs the paper's compaction pipeline (§5.3)
// over scratch the Manager keeps: plan each head's page count while
// checking everything that can fail, scan the counts into offsets, take one
// contiguous run of the free ring, apply by walking the heads again with
// their slice of the run. A call that returns an error has therefore moved
// no page, table entry or token count. The scratch is what makes a Manager
// single-goroutine: the parallelism the paper measures is on the device and
// is priced by gpusim from CompactStats, not bought with host goroutines.
type Manager struct {
	cfg       Config
	pool      *PagePool
	free      *FreeList
	seqs      map[int]*SeqCache
	capHi     int // tokens per high-precision page
	capLo     int // tokens per low-precision page
	slots     int // page-table entry length
	metaBytes int // page-table footprint of the registered sequences

	// pipeline scratch, grown when a larger batch first appears, then reused
	cnt  []int32 // plan: pages per head
	off  []int32 // scan: each head's offset into flat
	flat []int32 // take: the page IDs
}

// NewManager builds a manager from cfg.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:   cfg,
		pool:  NewPagePool(cfg.NumPages, cfg.PageBytes, cfg.Dim, cfg.Materialize),
		free:  NewFreeList(cfg.NumPages),
		seqs:  make(map[int]*SeqCache),
		capHi: TokensPerPage(cfg.PageBytes, cfg.Dim, cfg.HiPrec),
		capLo: TokensPerPage(cfg.PageBytes, cfg.Dim, cfg.LoPrec),
	}
	// The page-table entry length is the max sequence length divided by
	// tokens per high-precision page (paper §5.2 — low-precision pages hold
	// more tokens, so this side can never overflow first).
	m.slots = pagesNeeded(cfg.MaxSeqLen, m.capHi)
	return m, nil
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// FreePages returns the number of free pages.
func (m *Manager) FreePages() int { return m.free.Free() }

// UsedPages returns the number of allocated pages.
func (m *Manager) UsedPages() int { return m.free.Used() }

// TokensPerHiPage returns the capacity of a high-precision page.
func (m *Manager) TokensPerHiPage() int { return m.capHi }

// TokensPerLoPage returns the capacity of a low-precision page.
func (m *Manager) TokensPerLoPage() int { return m.capLo }

// tier returns a level's precision and page capacity.
func (m *Manager) tier(level Level) (quant.Precision, int) {
	if level == LevelHi {
		return m.cfg.HiPrec, m.capHi
	}
	return m.cfg.LoPrec, m.capLo
}

// SeqCache is the per-sequence view: one HeadCache per KV head managed by
// this worker.
type SeqCache struct {
	ID    int
	Heads []*HeadCache // Heads[i] is &heads[i], for callers that hold one head
	heads []HeadCache  // the slab the Manager's passes scan
}

// AddSequence registers a sequence with numHeads KV heads and returns its
// cache view.
func (m *Manager) AddSequence(id, numHeads int) (*SeqCache, error) {
	if err := m.checkNew(id, numHeads); err != nil {
		return nil, err
	}
	return m.register(id, numHeads), nil
}

// checkNew reports why a sequence cannot be registered, if it cannot.
func (m *Manager) checkNew(id, numHeads int) error {
	if _, dup := m.seqs[id]; dup {
		return fmt.Errorf("kvcache: sequence %d already registered", id)
	}
	if numHeads <= 0 {
		return fmt.Errorf("kvcache: sequence needs at least one head")
	}
	return nil
}

// register builds a sequence in four allocations whatever its head count:
// the view, the pointer slice, one slab of HeadCaches and one block of
// page-table entries the tables slice up.
func (m *Manager) register(id, numHeads int) *SeqCache {
	sc := &SeqCache{ID: id, Heads: make([]*HeadCache, numHeads), heads: make([]HeadCache, numHeads)}
	block := make([]int32, numHeads*m.slots)
	for i := range block {
		block[i] = -1
	}
	for i := range sc.heads {
		sc.heads[i] = HeadCache{mgr: m, table: BiTable{slots: block[i*m.slots : (i+1)*m.slots : (i+1)*m.slots]}}
		sc.Heads[i] = &sc.heads[i]
	}
	m.seqs[id] = sc
	m.metaBytes += 4 * len(block)
	return sc
}

// Sequence returns a registered sequence's cache view.
func (m *Manager) Sequence(id int) (*SeqCache, bool) {
	sc, ok := m.seqs[id]
	return sc, ok
}

// ReleaseSequence recycles every page of a finished sequence.
func (m *Manager) ReleaseSequence(id int) error {
	sc, ok := m.seqs[id]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", id)
	}
	flat := m.flat[:0]
	for i := range sc.heads {
		hc := &sc.heads[i]
		flat = hc.table.drain(flat)
		hc.tokens = [2]int{}
	}
	m.flat = flat[:0]
	m.free.give(flat)
	m.metaBytes -= 4 * len(sc.heads) * m.slots
	delete(m.seqs, id)
	return nil
}

// sized returns (*buf)[:n], reallocating only when n exceeds every earlier
// request.
func sized(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	return (*buf)[:n]
}

// scanTake scans the planned counts into offsets and takes their total from
// the free ring as one run. On error nothing has moved.
func (m *Manager) scanTake(cnt []int32) (off, flat []int32, err error) {
	off = sized(&m.off, len(cnt))
	total := int(mathx.ExclusiveScan(cnt, off))
	flat = sized(&m.flat, total)
	return off, flat, m.free.take(total, flat)
}

// attach configures pages ids for a tier and pushes them onto hc's table,
// whose room the caller's plan has checked. In counts-only mode tokens fill
// the pages in order, so byte accounting works without payloads.
func (m *Manager) attach(hc *HeadCache, level Level, ids []int32, tokens int) {
	prec, perPage := m.tier(level)
	for _, id := range ids {
		p := m.pool.configure(id, prec, perPage)
		if !m.cfg.Materialize {
			p.N = min(tokens, perPage)
			tokens -= p.N
		}
		if err := hc.table.push(level, id); err != nil {
			panic(err)
		}
	}
}

// CompactStats counts the work of one compaction pass; the gpusim cost
// model converts these into simulated time.
type CompactStats struct {
	TokenOps       int // per-token planning operations
	Regions        int // (request × head) regions coordinated
	PagesAllocated int
	PagesFreed     int
}

// Add accumulates another stats record.
func (s *CompactStats) Add(o CompactStats) {
	s.TokenOps += o.TokenOps
	s.Regions += o.Regions
	s.PagesAllocated += o.PagesAllocated
	s.PagesFreed += o.PagesFreed
}

// HeadDemand is the planning-phase output of one head in the prompt phase:
// how many tokens it stores at each tier after compression.
type HeadDemand struct {
	HiTokens int
	LoTokens int
}

// pages returns the pages d occupies across both tiers.
func (m *Manager) pages(d HeadDemand) int {
	return pagesNeeded(d.HiTokens, m.capHi) + pagesNeeded(d.LoTokens, m.capLo)
}

// place attaches a head's planned pages — the high tier's first, then the
// low tier's — and sets its token counts to d.
func (m *Manager) place(hc *HeadCache, d HeadDemand, ids []int32) {
	hi := pagesNeeded(d.HiTokens, m.capHi)
	m.attach(hc, LevelHi, ids[:hi], d.HiTokens)
	m.attach(hc, LevelLo, ids[hi:], d.LoTokens)
	hc.tokens = [2]int{LevelHi: d.HiTokens, LevelLo: d.LoTokens}
}

// PromptCompact runs the full prompt-phase compaction workflow (paper
// §5.3) for one sequence: conservative allocation assuming every prompt
// token is stored at high precision, per-head planning (demands computed by
// the caller's compression policy), and reclamation of unused pages.
// Counts-only: materialized token payloads are appended separately by the
// policy via HeadCache in accuracy experiments.
//
// The device allocates before its planning kernel has run, so every head is
// reserved ceil(promptLen/capHi) pages — plus a top-up where both tiers
// round up — and returns the rest. The host has the demands up front, so it
// takes only the pages the tables keep; but the whole reservation must fit
// the free pool, or admission would differ from the paper's, and the stats
// report the reservation's allocations and reclaims.
func (m *Manager) PromptCompact(seqID, promptLen int, demands []HeadDemand) (CompactStats, error) {
	sc, ok := m.seqs[seqID]
	if !ok {
		return CompactStats{}, fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	if len(demands) != len(sc.heads) {
		return CompactStats{}, fmt.Errorf("kvcache: %d demands for %d heads", len(demands), len(sc.heads))
	}
	nHeads := len(sc.heads)
	conservative := pagesNeeded(promptLen, m.capHi)
	// TokenOps accounts for the planning kernel's per-token scan.
	stats := CompactStats{TokenOps: promptLen * nHeads, Regions: nHeads}

	cnt := sized(&m.cnt, nHeads)
	reserve := 0
	for i, d := range demands {
		if d.HiTokens < 0 || d.LoTokens < 0 || d.HiTokens+d.LoTokens > promptLen {
			return CompactStats{}, fmt.Errorf("kvcache: head %d demand (%d,%d) exceeds prompt %d",
				i, d.HiTokens, d.LoTokens, promptLen)
		}
		need := m.pages(d)
		if need > sc.heads[i].table.room() {
			return CompactStats{}, fmt.Errorf("kvcache: head %d: %w", i, tableOverflow(m.slots))
		}
		cnt[i] = int32(need)
		// Low-precision pages hold ≥ as many tokens as high-precision ones
		// and demands sum to ≤ promptLen, so the conservative allocation
		// always suffices — except when *both* tiers round up.
		topUp := max(0, need-conservative)
		reserve += conservative + topUp
		stats.PagesAllocated += need + topUp // a top-up page counts when drawn and when attached
		stats.PagesFreed += conservative + topUp - need
	}
	if reserve > m.free.Free() {
		return CompactStats{}, fmt.Errorf("kvcache: out of pages: prompt of %d tokens reserves %d, %d free",
			promptLen, reserve, m.free.Free())
	}
	off, flat, err := m.scanTake(cnt)
	if err != nil {
		return CompactStats{}, err
	}
	for i, d := range demands {
		m.place(&sc.heads[i], d, flat[off[i]:off[i]+cnt[i]])
	}
	return stats, nil
}

// GenDemand is one head's generation-step memory demand: how many
// additional tokens land in each tier this step (0 or 1 each under
// Algorithm 1; the candidate goes to one tier and a victim may be
// downgraded into the other).
type GenDemand struct {
	HiDelta int
	LoDelta int
	// HiRemoved / LoRemoved report evictions (pruned or downgraded away);
	// they free no pages during generation (paper §5.3: recycling happens
	// only when the request finishes), but keep token counts correct.
	HiRemoved int
	LoRemoved int
}

// after returns hc's per-tier token counts once d has landed.
func (d *GenDemand) after(hc *HeadCache) (hi, lo int) {
	return hc.tokens[LevelHi] + d.HiDelta - d.HiRemoved, hc.tokens[LevelLo] + d.LoDelta - d.LoRemoved
}

// shortfall is the planning step of one tier of one head during generation:
// the pages the tier must gain to hold tokens. The comparison settles the
// common case, none, without a division.
func shortfall(tokens, have, perPage int) int {
	if tokens <= have*perPage {
		return 0
	}
	return pagesNeeded(tokens, perPage) - have
}

// GenCompact runs one generation-step compaction for a set of distinct
// sequences: each head allocates at most the pages it needs (usually 0, at
// most one per tier), coordinated by one batch prefix-sum allocation across
// all heads of all sequences.
func (m *Manager) GenCompact(seqIDs []int, demands [][]GenDemand) (CompactStats, error) {
	if len(seqIDs) != len(demands) {
		return CompactStats{}, fmt.Errorf("kvcache: %d seqs vs %d demand sets", len(seqIDs), len(demands))
	}
	heads := 0
	for _, ds := range demands {
		heads += len(ds)
	}
	cnt := sized(&m.cnt, heads)
	stats := CompactStats{Regions: heads}
	k := 0
	for si, id := range seqIDs {
		sc, ok := m.seqs[id]
		if !ok {
			return CompactStats{}, fmt.Errorf("kvcache: unknown sequence %d", id)
		}
		if len(demands[si]) != len(sc.heads) {
			return CompactStats{}, fmt.Errorf("kvcache: seq %d: %d demands for %d heads",
				id, len(demands[si]), len(sc.heads))
		}
		for h := range sc.heads {
			hc := &sc.heads[h]
			hiTok, loTok := demands[si][h].after(hc)
			need := shortfall(hiTok, hc.table.count(LevelHi), m.capHi) +
				shortfall(loTok, hc.table.count(LevelLo), m.capLo)
			if need > hc.table.room() {
				return CompactStats{}, fmt.Errorf("kvcache: seq %d head %d: %w", id, h, tableOverflow(m.slots))
			}
			cnt[k] = int32(need)
			k++
			// planning cost: victim search scans the head's cached tokens
			stats.TokenOps += hc.tokens[LevelHi] + hc.tokens[LevelLo]
		}
	}
	off, flat, err := m.scanTake(cnt)
	if err != nil {
		return CompactStats{}, err
	}
	stats.PagesAllocated = len(flat)
	k = 0
	for si, id := range seqIDs {
		sc := m.seqs[id]
		for h := range sc.heads {
			hc := &sc.heads[h]
			hiTok, loTok := demands[si][h].after(hc)
			if cnt[k] > 0 {
				ids := flat[off[k] : off[k]+cnt[k]]
				hi := shortfall(hiTok, hc.table.count(LevelHi), m.capHi)
				m.attach(hc, LevelHi, ids[:hi], 0)
				m.attach(hc, LevelLo, ids[hi:], 0)
			}
			hc.tokens = [2]int{LevelHi: hiTok, LevelLo: loTok}
			k++
		}
	}
	return stats, nil
}

// HeadCounts reports every head's per-tier token counts — the state a host
// offload tier captures to swap the sequence out. When buf has sufficient
// capacity it is reused (the steady-state swap path allocates nothing
// here); otherwise a new slice is returned.
func (m *Manager) HeadCounts(seqID int, buf []HeadDemand) ([]HeadDemand, error) {
	sc, ok := m.seqs[seqID]
	if !ok {
		return nil, fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	if cap(buf) < len(sc.heads) {
		buf = make([]HeadDemand, len(sc.heads))
	}
	buf = buf[:len(sc.heads)]
	for i := range sc.heads {
		buf[i] = HeadDemand{HiTokens: sc.heads[i].HiTokens(), LoTokens: sc.heads[i].LoTokens()}
	}
	return buf, nil
}

// SeqKVBytes returns the token-exact payload+metadata bytes of a sequence
// across all heads — the quantity a swap must move over PCIe. Compressed
// tiers make this smaller than the FP16 equivalent, which is exactly why
// swapping a compressed sequence is cheaper.
func (m *Manager) SeqKVBytes(seqID int) (int64, error) {
	sc, ok := m.seqs[seqID]
	if !ok {
		return 0, fmt.Errorf("kvcache: unknown sequence %d", seqID)
	}
	var b int64
	for i := range sc.heads {
		b += int64(sc.heads[i].KVBytes())
	}
	return b, nil
}

// AdoptCounts registers seqID and allocates exactly the pages needed to
// hold the given per-head tier counts — the swap-in restore path: a
// sequence whose counts were captured by HeadCounts before release is
// re-admitted with an identical page-table shape. Counts-only mode;
// materialized payloads are restored via ReadSnapshot, which allocates its
// own pages. Nothing is registered until the pages have been taken.
func (m *Manager) AdoptCounts(seqID int, demands []HeadDemand) (CompactStats, error) {
	if m.cfg.Materialize {
		return CompactStats{}, fmt.Errorf("kvcache: AdoptCounts requires a counts-only manager (use ReadSnapshot)")
	}
	if err := m.checkNew(seqID, len(demands)); err != nil {
		return CompactStats{}, err
	}
	cnt := sized(&m.cnt, len(demands))
	for i, d := range demands {
		if d.HiTokens < 0 || d.LoTokens < 0 {
			return CompactStats{}, fmt.Errorf("kvcache: negative adopt demand (%d,%d)", d.HiTokens, d.LoTokens)
		}
		need := m.pages(d)
		if need > m.slots {
			return CompactStats{}, fmt.Errorf("kvcache: head %d: %w", i, tableOverflow(m.slots))
		}
		cnt[i] = int32(need)
	}
	off, flat, err := m.scanTake(cnt)
	if err != nil {
		return CompactStats{}, err
	}
	sc := m.register(seqID, len(demands))
	for i, d := range demands {
		m.place(&sc.heads[i], d, flat[off[i]:off[i]+cnt[i]])
	}
	return CompactStats{Regions: len(demands), PagesAllocated: len(flat)}, nil
}

func pagesNeeded(tokens, perPage int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + perPage - 1) / perPage
}

// BytesUsed returns the total bytes of allocated pages (page granularity —
// the quantity that bounds batch size on the device).
func (m *Manager) BytesUsed() int64 {
	return int64(m.free.Used()) * int64(m.cfg.PageBytes)
}

// MetadataBytes returns the total page-table footprint across registered
// sequences.
//
//diffkv:allow deadcode -- tests see page-table accounting through it: the running footprint equals the sum over registered tables after every call, failed ones included, and zero after a drain
func (m *Manager) MetadataBytes() int { return m.metaBytes }
