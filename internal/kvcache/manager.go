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
	// Materialize backs every page ID with a payload-carrying page
	// (accuracy experiments). Without it the manager is counts-only
	// (serving scale): it holds no page pool, a page is its ID in the free
	// ring and in a table, and a head's tokens are two counts.
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

// Manager is one worker's KV-cache memory manager: the circular free page
// list, per-(sequence, head) bidirectional page tables and, when
// materialized, the page pool the IDs name.
//
// Every call that moves pages runs the paper's compaction pipeline (§5.3)
// over scratch the Manager keeps: plan each head's page count while
// checking everything that can fail, scan the counts into offsets, take one
// contiguous run of the free ring, apply by walking the heads again with
// their slice of the run. A call that returns an error has therefore moved
// no page, table entry or token count. The scratch makes a Manager
// single-caller: one goroutine at a time may call it. Inside a call only a
// generation step (GenCompact, GenCompactFrom) fans out, drawing and
// planning a large batch's heads on mathx.ForEach the way the device plans
// them (§5.2-5.3); what the device's parallelism costs is priced by gpusim
// from CompactStats either way.
type Manager struct {
	cfg       Config
	pool      *PagePool // nil in counts-only mode
	free      *FreeList
	seqs      map[int]*SeqCache
	spare     [][]int32 // released sequences' page-table blocks, every slot -1
	capHi     int       // tokens per high-precision page
	capLo     int       // tokens per low-precision page
	slots     int       // page-table entry length
	metaBytes int       // page-table footprint of the registered sequences

	// pipeline scratch, grown when a larger batch first appears, then reused
	cnt     []int32 // plan: pages per head
	off     []int32 // scan: each head's offset into flat
	flat    []int32 // take: the page IDs
	genSeqs []*SeqCache
	chunks  []genChunk
	given   demandSlices // GenCompact's demands, for the length of the call
	epoch   uint64       // generation steps so far; stamps each sequence one plans
}

// NewManager builds a manager from cfg.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:   cfg,
		free:  NewFreeList(cfg.NumPages),
		seqs:  make(map[int]*SeqCache),
		capHi: TokensPerPage(cfg.PageBytes, cfg.Dim, cfg.HiPrec),
		capLo: TokensPerPage(cfg.PageBytes, cfg.Dim, cfg.LoPrec),
	}
	if cfg.Materialize {
		m.pool = NewPagePool(cfg.NumPages, cfg.PageBytes, cfg.Dim)
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
	block []int32      // the page-table entries the heads' tables slice up
	epoch uint64       // the last GenCompact call that named the sequence
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

// register builds a sequence in three allocations whatever its head count:
// the view, the pointer slice and one slab of HeadCaches. The block of
// page-table entries the tables slice up is a fourth only when no released
// sequence left a spare block of the same length.
func (m *Manager) register(id, numHeads int) *SeqCache {
	block := m.block(numHeads * m.slots)
	sc := &SeqCache{ID: id, Heads: make([]*HeadCache, numHeads), heads: make([]HeadCache, numHeads), block: block}
	for i := range sc.heads {
		sc.heads[i] = HeadCache{mgr: m, table: BiTable{slots: block[i*m.slots : (i+1)*m.slots : (i+1)*m.slots]}}
		sc.Heads[i] = &sc.heads[i]
	}
	m.seqs[id] = sc
	m.metaBytes += 4 * len(block)
	return sc
}

// block returns an n-entry page-table block with every entry -1: a spare
// block of that length, or a fresh one. A spare needs no fill, since drain
// wrote -1 back into every entry it had used.
func (m *Manager) block(n int) []int32 {
	for i := len(m.spare) - 1; i >= 0; i-- {
		if b := m.spare[i]; len(b) == n {
			last := len(m.spare) - 1
			m.spare[i], m.spare[last] = m.spare[last], nil
			m.spare = m.spare[:last]
			return b
		}
	}
	b := make([]int32, n)
	for i := range b {
		b[i] = -1
	}
	return b
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
		hc.table.slots = nil // a stale view must not reach the block once it is reused
		hc.tokens = [2]int{}
	}
	m.flat = flat[:0]
	m.free.give(flat)
	m.spare = append(m.spare, sc.block)
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

// attach pushes pages ids onto a tier of hc's table, whose room the
// caller's plan has checked. A materialized manager first configures each
// page, empty, for the tier; a counts-only one has only the IDs.
func (m *Manager) attach(hc *HeadCache, level Level, ids []int32) {
	if m.pool != nil {
		prec, perPage := m.tier(level)
		for _, id := range ids {
			m.pool.configure(id, prec, perPage)
		}
	}
	for _, id := range ids {
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
	m.attach(hc, LevelHi, ids[:hi])
	m.attach(hc, LevelLo, ids[hi:])
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
// downgraded into the other). Evictions free no pages during generation
// (paper §5.3: recycling happens only when the request finishes), so a
// demand only grows a tier.
type GenDemand struct {
	HiDelta int
	LoDelta int
}

// GenSource supplies a generation step's demands to the plan walk, one
// sequence at a time: GenDemands(i, d) writes the demand of each head of
// the call's sequence i into d, which has one entry per head. The walk
// calls it for i on the worker that plans i's chunk, so calls for
// different sequences may run at once, and calls it again on the calling
// goroutine to undo a failed call. A source therefore writes nothing but
// d, and writes the same values every time it is called for i within one
// call.
type GenSource interface {
	GenDemands(i int, d []GenDemand)
}

// demandSlices is the source GenCompact walks: the caller's demands,
// copied out per sequence.
type demandSlices [][]GenDemand

func (s *demandSlices) GenDemands(i int, d []GenDemand) { copy(d, (*s)[i]) }

// shortfall is the planning step of one tier of one head during generation:
// the pages the tier must gain to hold tokens. The comparison settles the
// common case, none, without a division.
func shortfall(tokens, have, perPage int) int {
	if tokens <= have*perPage {
		return 0
	}
	return pagesNeeded(tokens, perPage) - have
}

// parallelHeads is the batch size, in heads, from which a generation step
// draws and plans its chunks on mathx.ForEach: 48 Llama3-8B sequences of
// 256 heads. On a 2-vCPU host a generation step's fan-out was up to 25 %
// slower than the serial walk at 8-32 sequences, even at 48, and 12 %
// faster at decode_heavy's 96, so smaller batches stay on the calling
// goroutine, where they allocate nothing. It is a variable only so that
// tests can force every call onto either path. genChunkHeads is the heads
// a chunk gathers before it closes at a sequence boundary.
var parallelHeads = 12288

const genChunkHeads = 2048

// genChunk is one contiguous run of a generation batch's sequences,
// drawn and planned by one worker that writes nothing but its own entry.
type genChunk struct {
	first, end int         // sequence indices [first, end)
	demand     []GenDemand // the sequence being walked: one entry per head
	grows      []genGrow   // the heads that need pages, in (sequence, head) order
	pages      int         // their sum
	tokenOps   int
	done       int // heads whose token counts are committed
	err        error
}

// genGrow is one head's page shortfall in each tier. It names the head by
// index, so the scratch keeps no sequence alive after its release.
type genGrow struct {
	seq, head int32 // index into the call's sequences; head within it
	hi, lo    int32
}

// GenCompact runs one generation-step compaction for a set of distinct
// sequences, with demands[i] the demand of each head of seqIDs[i]. It
// checks every demand's length before anything moves, then walks the
// demands as GenCompactFrom walks a source's.
func (m *Manager) GenCompact(seqIDs []int, demands [][]GenDemand) (CompactStats, error) {
	if len(seqIDs) != len(demands) {
		return CompactStats{}, fmt.Errorf("kvcache: %d seqs vs %d demand sets", len(seqIDs), len(demands))
	}
	m.given = demands
	defer func() { m.given = nil }() // the scratch holds no caller's demands past the call
	return m.genCompact(seqIDs, demands, &m.given)
}

// GenCompactFrom runs one generation-step compaction for a set of distinct
// sequences, whose demands src supplies: each head allocates at most the
// pages it needs (usually 0, at most one per tier), coordinated by one
// batch prefix-sum allocation across all heads of all sequences.
//
// The walk asks src for one sequence's demands at a time, into its
// chunk's scratch, then walks that sequence's heads once: it computes each
// head's shortfall, checks its table room, commits its token counts and
// records it if it needs pages. A batch of parallelHeads or more is drawn
// and planned in chunks on mathx.ForEach, one pass. The chunks' page
// totals are then summed in order, one run is taken from the free ring and
// the recorded heads get their pages in (sequence, head) order, so every
// head gets the page IDs a serial walk would give it. A table overflow or
// a short pool undoes every committed count, asking src again for the
// demands it subtracts, so a failed call still moves nothing.
func (m *Manager) GenCompactFrom(seqIDs []int, src GenSource) (CompactStats, error) {
	return m.genCompact(seqIDs, nil, src)
}

// genCompact is the walk behind GenCompact and GenCompactFrom; demands,
// when not nil, are checked against the sequences' head counts first.
func (m *Manager) genCompact(seqIDs []int, demands [][]GenDemand, src GenSource) (CompactStats, error) {
	scs, heads, err := m.genBatch(seqIDs, demands)
	if err != nil {
		return CompactStats{}, err
	}
	defer clear(scs) // the scratch holds no sequence past the call
	parallel := heads >= parallelHeads
	chunks := m.genChunks(scs, parallel)
	if parallel {
		mathx.ForEach(len(chunks), 0, func(c int) { m.planGen(&chunks[c], scs, src) })
	} else {
		for c := range chunks {
			m.planGen(&chunks[c], scs, src)
		}
	}
	stats := CompactStats{Regions: heads}
	for c := range chunks {
		stats.TokenOps += chunks[c].tokenOps
		stats.PagesAllocated += chunks[c].pages
		if err == nil {
			err = chunks[c].err
		}
	}
	flat := sized(&m.flat, stats.PagesAllocated)
	if err == nil {
		err = m.free.take(len(flat), flat)
	}
	if err != nil {
		m.undoGen(chunks, scs, src)
		return CompactStats{}, err
	}
	k := 0
	for c := range chunks {
		for _, g := range chunks[c].grows {
			hc := &scs[g.seq].heads[g.head]
			ids := flat[k : k+int(g.hi+g.lo)]
			m.attach(hc, LevelHi, ids[:g.hi])
			m.attach(hc, LevelLo, ids[g.hi:])
			k += len(ids)
		}
	}
	return stats, nil
}

// genBatch checks a generation step's IDs, and the demand lengths when
// demands is not nil, before anything moves, and returns its sequences and
// their head total. A sequence named twice would be planned twice from
// stale counts, so each one is stamped with the call's epoch and a repeat
// is refused.
func (m *Manager) genBatch(seqIDs []int, demands [][]GenDemand) ([]*SeqCache, int, error) {
	m.epoch++
	scs := m.genSeqs[:0]
	heads := 0
	for si, id := range seqIDs {
		sc, ok := m.seqs[id]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("kvcache: unknown sequence %d", id)
		case sc.epoch == m.epoch:
			err = fmt.Errorf("kvcache: sequence %d repeated in one generation step", id)
		case demands != nil && len(demands[si]) != len(sc.heads):
			err = fmt.Errorf("kvcache: seq %d: %d demands for %d heads", id, len(demands[si]), len(sc.heads))
		}
		if err != nil {
			clear(scs)
			return nil, 0, err
		}
		sc.epoch = m.epoch
		scs = append(scs, sc)
		heads += len(sc.heads)
	}
	m.genSeqs = scs
	return scs, heads, nil
}

// genChunks splits a batch into chunks of about genChunkHeads heads at
// sequence boundaries, or into one chunk when it is planned serially. The
// chunk entries, and the capacity of their scratch, are reused across
// calls.
func (m *Manager) genChunks(scs []*SeqCache, parallel bool) []genChunk {
	n := 0
	for first := 0; first < len(scs); n++ {
		end, heads := first, 0
		for end < len(scs) && (!parallel || heads < genChunkHeads) {
			heads += len(scs[end].heads)
			end++
		}
		if n == len(m.chunks) {
			m.chunks = append(m.chunks, genChunk{})
		}
		m.chunks[n].first, m.chunks[n].end = first, end
		first = end
	}
	return m.chunks[:n]
}

// demandFor returns c's demand scratch resized to n heads.
func (c *genChunk) demandFor(n int) []GenDemand {
	if cap(c.demand) < n {
		c.demand = make([]GenDemand, n)
	}
	return c.demand[:n]
}

// planGen draws a chunk's demands one sequence at a time and walks their
// heads in order; it stops at the first head whose table cannot take its
// shortfall.
func (m *Manager) planGen(c *genChunk, scs []*SeqCache, src GenSource) {
	grows, pages, ops, done := c.grows[:0], 0, 0, 0
	var err error
walk:
	for s := c.first; s < c.end; s++ {
		sc := scs[s]
		ds := c.demandFor(len(sc.heads))
		src.GenDemands(s, ds)
		for h := range sc.heads {
			hc, d := &sc.heads[h], &ds[h]
			hiTok, loTok := hc.tokens[LevelHi]+d.HiDelta, hc.tokens[LevelLo]+d.LoDelta
			hi := shortfall(hiTok, hc.table.count(LevelHi), m.capHi)
			lo := shortfall(loTok, hc.table.count(LevelLo), m.capLo)
			if hi+lo > hc.table.room() {
				err = fmt.Errorf("kvcache: seq %d head %d: %w", sc.ID, h, tableOverflow(m.slots))
				break walk
			}
			// planning cost: victim search scans the head's cached tokens
			ops += hc.tokens[LevelHi] + hc.tokens[LevelLo]
			hc.tokens = [2]int{LevelHi: hiTok, LevelLo: loTok}
			done++
			if hi+lo > 0 {
				grows = append(grows, genGrow{seq: int32(s), head: int32(h), hi: int32(hi), lo: int32(lo)})
				pages += hi + lo
			}
		}
	}
	c.grows, c.pages, c.tokenOps, c.done, c.err = grows, pages, ops, done, err
}

// undoGen takes back the token counts planGen committed, exactly, asking
// src again for the demands it subtracts.
func (m *Manager) undoGen(chunks []genChunk, scs []*SeqCache, src GenSource) {
	for c := range chunks {
		ch := &chunks[c]
		left := ch.done
		for s := ch.first; s < ch.end && left > 0; s++ {
			sc := scs[s]
			ds := ch.demandFor(len(sc.heads))
			src.GenDemands(s, ds)
			n := min(left, len(sc.heads))
			for h, d := range ds[:n] {
				hc := &sc.heads[h]
				hc.tokens[LevelHi] -= d.HiDelta
				hc.tokens[LevelLo] -= d.LoDelta
			}
			left -= n
		}
	}
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
// re-admitted with an identical page-table shape. Counts-only mode.
// Nothing is registered until the pages have been taken.
func (m *Manager) AdoptCounts(seqID int, demands []HeadDemand) error {
	if m.cfg.Materialize {
		return fmt.Errorf("kvcache: AdoptCounts requires a counts-only manager")
	}
	if err := m.checkNew(seqID, len(demands)); err != nil {
		return err
	}
	cnt := sized(&m.cnt, len(demands))
	for i, d := range demands {
		if d.HiTokens < 0 || d.LoTokens < 0 {
			return fmt.Errorf("kvcache: negative adopt demand (%d,%d)", d.HiTokens, d.LoTokens)
		}
		need := m.pages(d)
		if need > m.slots {
			return fmt.Errorf("kvcache: head %d: %w", i, tableOverflow(m.slots))
		}
		cnt[i] = int32(need)
	}
	off, flat, err := m.scanTake(cnt)
	if err != nil {
		return err
	}
	sc := m.register(seqID, len(demands))
	for i, d := range demands {
		m.place(&sc.heads[i], d, flat[off[i]:off[i]+cnt[i]])
	}
	return nil
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
