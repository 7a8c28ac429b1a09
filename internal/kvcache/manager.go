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
// materialized, the page pool the IDs name. It keeps released sequences'
// records, tables empty, for the next sequences of their head counts.
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
	spare     []*SeqCache // released records: every table empty, every slot -1
	capHi     int         // tokens per high-precision page
	capLo     int         // tokens per low-precision page
	slots     int         // page-table entry length
	metaBytes int         // page-table footprint of the registered sequences

	// pipeline scratch, grown when a larger batch first appears, then reused
	cnt     []int32 // plan: pages per head
	off     []int32 // scan: each head's offset into flat
	flat    []int32 // take: the page IDs
	genSeqs []*SeqCache
	chunks  []genChunk
	epoch   uint64 // generation steps so far; stamps each sequence one plans
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
// this worker. The Manager recycles the whole record when the sequence is
// released, so a view, and every HeadCache taken from it, is dead after
// ReleaseSequence: the next sequence of the same head count gets it.
type SeqCache struct {
	ID    int
	mgr   *Manager
	heads []HeadCache // the slab the Manager's passes scan
	block []int32     // the page-table entries the heads' tables slice up
	total int         // cached tokens over every head and tier
	epoch uint64      // the last GenCompact call that named the sequence
}

// Head returns the cache of KV head h.
func (sc *SeqCache) Head(h int) *HeadCache { return &sc.heads[h] }

// AddSequence registers a sequence with numHeads KV heads and returns its
// cache view, which lives until ReleaseSequence(id).
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

// register returns a record for a new sequence: a released record of the
// same head count, whose tables release left empty, or a fresh one built in
// three allocations whatever its head count — the view, one slab of
// HeadCaches and one block of page-table entries the tables slice up.
func (m *Manager) register(id, numHeads int) *SeqCache {
	sc := m.reuse(numHeads)
	if sc == nil {
		block := make([]int32, numHeads*m.slots)
		for i := range block {
			block[i] = -1
		}
		sc = &SeqCache{mgr: m, heads: make([]HeadCache, numHeads), block: block}
		for i := range sc.heads {
			sc.heads[i] = HeadCache{seq: sc, table: BiTable{slots: block[i*m.slots : (i+1)*m.slots : (i+1)*m.slots]}}
		}
	}
	sc.ID = id
	m.seqs[id] = sc
	m.metaBytes += 4 * len(sc.block)
	return sc
}

// reuse takes a released record of numHeads heads off the spare list, the
// most recently released first, or returns nil when there is none.
func (m *Manager) reuse(numHeads int) *SeqCache {
	for i := len(m.spare) - 1; i >= 0; i-- {
		if sc := m.spare[i]; len(sc.heads) == numHeads {
			last := len(m.spare) - 1
			m.spare[i], m.spare[last] = m.spare[last], nil
			m.spare = m.spare[:last]
			return sc
		}
	}
	return nil
}

// ReleaseSequence recycles every page of a finished sequence and keeps its
// record, every table empty, for the next sequence of its head count.
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
	sc.total = 0
	m.flat = flat[:0]
	m.free.give(flat)
	m.spare = append(m.spare, sc)
	m.metaBytes -= 4 * len(sc.block)
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
	if err := hc.table.push(level, ids...); err != nil {
		panic(err)
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
	hc.setTokens(d.HiTokens, d.LoTokens)
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

// TierThresholds place one head's generation candidate from its draw:
// with m the top 53 bits of the head's Uint64 draw, the candidate lands in
// the high tier when m < Hi, else in the low tier when m < Any, else in
// neither. NewTierThresholds makes them from the head's tier fractions.
type TierThresholds struct {
	Hi, Any uint64
}

// NewTierThresholds returns the thresholds of a head whose candidate lands
// in the high tier with probability hiF and in the low tier with loF: the
// integer forms (mathx.Threshold53) of the float tests u < hiF and
// u < hiF+loF on the draw's Float64 u, with the sum rounded to float64
// first, so that every draw places the candidate where those float tests
// would.
func NewTierThresholds(hiF, loF float64) TierThresholds {
	return TierThresholds{Hi: mathx.Threshold53(hiF), Any: mathx.Threshold53(hiF + loF)}
}

// demand is the generation demand of a head whose draw is x. The tests
// are flags, not branches: m is uniform, so a branch would mispredict
// once a head or so.
func (t TierThresholds) demand(x uint64) GenDemand {
	m := x >> 11
	hi, any := 0, 0
	if m < t.Hi {
		hi = 1
	}
	if m < t.Any {
		any = 1
	}
	return GenDemand{HiDelta: hi, LoDelta: any &^ hi}
}

// GenSource supplies the draws of a generation step to the plan walk, one
// sequence at a time: GenDraws(i) returns the call's sequence i's stream,
// positioned at its first draw of the step, and one TierThresholds per
// head, and head h's demand is its thresholds' placement of draw h of that
// stream (Uint64At(h)); or it returns ok false when no head of i draws
// anything this step, and the walk then only prices i's planning scan.
// The walk calls it for i on the worker that plans i's chunk, so calls for
// different sequences may run at once, and calls it again on the calling
// goroutine to undo a failed call. A source therefore writes nothing, and
// answers the same every time it is called for i within one call.
// DrawHeads returns the call's drawing heads: the heads of every sequence
// GenDraws answers ok for. The walk decides its fan-out on it, since a
// sequence that draws nothing costs one read of its token total; a wrong
// count moves wall time only, never a result.
type GenSource interface {
	GenDraws(i int) (r mathx.RNG, thr []TierThresholds, ok bool)
	DrawHeads() int
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

// parallelHeads is the work, in heads that draw (or, for GenCompact, in
// heads given demands), from which a generation step draws and plans its
// chunks on mathx.ForEach: 16 Llama3-8B sequences of 256 heads, two
// chunks. Measured with mathx.ForEach's warm helpers on a 2-vCPU host
// (GOMAXPROCS 2, BenchmarkGenStep's steps at 8-96 sequences,
// fan-out forced on against forced off, 8-10 alternating pairs), the
// fan-out won from 16 sequences on (10 of 10 pairs at 16 and 24, 1.10×
// and 1.28×; 8 of 8 at 48-96, 1.55-1.75×) and sat at the break-even below
// it (7 of 10 at 10 sequences, 1.07×, and 2 of 10 at 12, 0.84×; 8 is one
// chunk, which runs inline). Smaller batches stay on the calling
// goroutine, where they allocate nothing. It is a variable only so that
// tests can force every call onto either path. genChunkHeads is the heads
// a chunk gathers before it closes at a sequence boundary.
var parallelHeads = 4096

const genChunkHeads = 2048

// genChunk is one contiguous run of a generation batch's sequences,
// drawn and planned by one worker that writes nothing but its own entry
// and its sequences' counts.
type genChunk struct {
	first, end int       // sequence indices [first, end)
	draws      seqDraws  // the sequence being walked, when the step draws
	given      seqGiven  // the sequence being walked, when GenCompact's demands are given
	grows      []genGrow // the heads that need pages, in (sequence, head) order
	pages      int       // their sum
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
// demands as GenCompactFrom walks a source's draws, with the same
// hand-off.
func (m *Manager) GenCompact(seqIDs []int, demands [][]GenDemand) (CompactStats, error) {
	if len(seqIDs) != len(demands) {
		return CompactStats{}, fmt.Errorf("kvcache: %d seqs vs %d demand sets", len(seqIDs), len(demands))
	}
	return m.genCompact(seqIDs, genSteps{given: demands})
}

// GenCompactFrom runs one generation-step compaction for a set of distinct
// sequences, whose draws src supplies: each head allocates at most the
// pages it needs (usually 0, at most one per tier), coordinated by one
// batch prefix-sum allocation across all heads of all sequences.
//
// The walk asks src for one sequence's stream and thresholds at a time,
// then walks that sequence's heads once: each head reads its draw by
// index, places its candidate, and commits its new counts when its pages
// already hold them; a head that needs a page goes through the per-head
// plan, which computes its shortfall, checks its table room, commits its
// counts and records it. A sequence src reports as drawing nothing is
// only priced: its cached tokens, which the manager keeps as one total,
// are added to TokenOps. A batch whose drawing heads (src.DrawHeads())
// number parallelHeads or more is drawn and planned in chunks on
// mathx.ForEach, one pass. The chunks' page totals are then summed in
// order, one run is taken from the free ring and the recorded heads get
// their pages in (sequence, head) order, so every head
// gets the page IDs a serial walk would give it. A table overflow or a
// short pool undoes every committed count, asking src again for the draws
// it subtracts, so a failed call still moves nothing.
func (m *Manager) GenCompactFrom(seqIDs []int, src GenSource) (CompactStats, error) {
	return m.genCompact(seqIDs, genSteps{src: src})
}

// genCompact is the walk behind GenCompact and GenCompactFrom.
func (m *Manager) genCompact(seqIDs []int, steps genSteps) (CompactStats, error) {
	scs, heads, err := m.genBatch(seqIDs, steps.given)
	if err != nil {
		return CompactStats{}, err
	}
	defer clear(scs) // the scratch holds no sequence past the call
	parallel := steps.work(heads) >= parallelHeads
	chunks := m.genChunks(scs, parallel)
	defer forget(chunks)
	if parallel {
		mathx.ForEach(len(chunks), 0, func(c int) { m.planGen(&chunks[c], scs, steps) })
	} else {
		for c := range chunks {
			m.planGen(&chunks[c], scs, steps)
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
		m.undoGen(chunks, scs, steps)
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

// forget drops what the chunks hold of the last sequence each walked, so
// the scratch keeps no caller's slice past the call.
func forget(chunks []genChunk) {
	for c := range chunks {
		chunks[c].draws, chunks[c].given = seqDraws{}, nil
	}
}

// genSteps is the source of a generation step's demands: src's draws, or
// the demands GenCompact was given when given is not nil. It is a value,
// not an interface, so that handing it to the chunks' workers allocates
// nothing.
type genSteps struct {
	src   GenSource
	given [][]GenDemand
}

// work returns the heads the walk must draw or plan, of a call of heads
// heads: every head of given demands, or src's drawing heads.
func (g genSteps) work(heads int) int {
	if g.given != nil {
		return heads
	}
	return g.src.DrawHeads()
}

// seq returns sequence s's demands for the step, held in c's scratch, or
// nil when s draws nothing.
func (g genSteps) seq(c *genChunk, s int) genSeq {
	if g.given != nil {
		c.given = g.given[s]
		return &c.given
	}
	r, thr, ok := g.src.GenDraws(s)
	if !ok {
		return nil
	}
	c.draws = seqDraws{r, thr}
	return &c.draws
}

// genSeq is one sequence's demands in a generation step, as the walk reads
// them. leaf is the walk's leaf loop: from head from on, it commits each
// head's new counts, in order, while the head's pages already hold them in
// both tiers (tokens ≤ pages·perPage), and returns how many heads it
// committed and the sum of their new counts. It stops at the first head
// that needs a page and leaves that head as it is. demand is head h's
// demand, for that head's hand-off and for the undo.
type genSeq interface {
	leaf(heads []HeadCache, from, capHi, capLo int) (n, tokens int)
	demand(h int) GenDemand
}

// seqDraws is one sequence's draws: its stream at its first draw of the
// step, and its heads' thresholds. Head h's demand is its thresholds'
// placement of draw h.
type seqDraws struct {
	r   mathx.RNG
	thr []TierThresholds
}

// leaf reads each head's draw by index and places its candidate by its
// thresholds as it goes. It calls nothing, and ranging over the thresholds
// by value, not indexing them, leaves the draw's mix more registers; it
// stays out of line so that planGen's rare paths never share its loop.
//
//go:noinline
func (g *seqDraws) leaf(heads []HeadCache, from, capHi, capLo int) (n, tokens int) {
	r, thr := g.r.Ahead(uint64(from)), g.thr[from:len(heads)]
	heads = heads[from:]
	heads = heads[:len(thr)]
	for i, t := range thr {
		d := t.demand(r.Uint64At(uint64(i)))
		hc := &heads[i]
		hiTok, loTok := hc.tokens[LevelHi]+d.HiDelta, hc.tokens[LevelLo]+d.LoDelta
		if hiTok > hc.table.n[LevelHi]*capHi || loTok > hc.table.n[LevelLo]*capLo {
			return i, tokens
		}
		hc.tokens = [2]int{LevelHi: hiTok, LevelLo: loTok}
		tokens += hiTok + loTok
	}
	return len(thr), tokens
}

func (g *seqDraws) demand(h int) GenDemand { return g.thr[h].demand(g.r.Uint64At(uint64(h))) }

// seqGiven is one sequence's given demands, one per head.
type seqGiven []GenDemand

// leaf adds each head's given demand to its counts.
//
//go:noinline
func (ds *seqGiven) leaf(heads []HeadCache, from, capHi, capLo int) (n, tokens int) {
	given := (*ds)[from:len(heads)]
	heads = heads[from:]
	heads = heads[:len(given)]
	for i, d := range given {
		hc := &heads[i]
		hiTok, loTok := hc.tokens[LevelHi]+d.HiDelta, hc.tokens[LevelLo]+d.LoDelta
		if hiTok > hc.table.n[LevelHi]*capHi || loTok > hc.table.n[LevelLo]*capLo {
			return i, tokens
		}
		hc.tokens = [2]int{LevelHi: hiTok, LevelLo: loTok}
		tokens += hiTok + loTok
	}
	return len(given), tokens
}

func (ds *seqGiven) demand(h int) GenDemand { return (*ds)[h] }

// planGen walks a chunk's sequences one at a time and their heads in
// order; it stops at the first head whose table cannot take its
// shortfall. Every head's planning scan reads its cached tokens before
// the step, so a sequence's scan costs its token total. A sequence that
// draws nothing keeps its counts, which its tables already cover, so the
// total is all it costs.
//
// The walk runs the sequence's leaf loop, which commits the heads whose
// pages already hold their new counts, and hands off to the per-head plan
// below at each head that needs a page (about one head-step in twelve);
// the leaf then resumes after that head. The rare paths — shortfall's
// division, the room check's error, the append to grows — sit outside the
// leaf, so its per-head state stays in registers. The leaf sums the new
// counts of the heads it commits, and the sequence's total becomes their
// sum once the walk has passed every head.
func (m *Manager) planGen(c *genChunk, scs []*SeqCache, steps genSteps) {
	grows, pages, ops, done := c.grows[:0], 0, 0, 0
	var err error
walk:
	for s := c.first; s < c.end; s++ {
		sc := scs[s]
		ops += sc.total
		g := steps.seq(c, s)
		if g == nil {
			done += len(sc.heads)
			continue
		}
		total := 0 // the walked heads' counts after the step
		for h := 0; h < len(sc.heads); h++ {
			n, t := g.leaf(sc.heads, h, m.capHi, m.capLo)
			h, done, total = h+n, done+n, total+t
			if h == len(sc.heads) {
				break
			}
			// head h needs a page in at least one tier
			hc, d := &sc.heads[h], g.demand(h)
			hiTok, loTok := hc.tokens[LevelHi]+d.HiDelta, hc.tokens[LevelLo]+d.LoDelta
			hi := shortfall(hiTok, hc.table.count(LevelHi), m.capHi)
			lo := shortfall(loTok, hc.table.count(LevelLo), m.capLo)
			if hi+lo > hc.table.room() {
				err = fmt.Errorf("kvcache: seq %d head %d: %w", sc.ID, h, tableOverflow(m.slots))
				// the heads from h on keep their counts; the undo
				// takes back the others' from the total
				for i := h; i < len(sc.heads); i++ {
					total += sc.heads[i].TotalTokens()
				}
				sc.total = total
				break walk
			}
			hc.tokens = [2]int{LevelHi: hiTok, LevelLo: loTok}
			total += hiTok + loTok
			done++
			grows = append(grows, genGrow{seq: int32(s), head: int32(h), hi: int32(hi), lo: int32(lo)})
			pages += hi + lo
		}
		sc.total = total
	}
	c.grows, c.pages, c.tokenOps, c.done, c.err = grows, pages, ops, done, err
}

// undoGen takes back the token counts planGen committed, exactly, asking
// the source again for the demands it subtracts; a sequence that drew
// nothing committed nothing.
func (m *Manager) undoGen(chunks []genChunk, scs []*SeqCache, steps genSteps) {
	for c := range chunks {
		ch := &chunks[c]
		left := ch.done
		for s := ch.first; s < ch.end && left > 0; s++ {
			sc := scs[s]
			n := min(left, len(sc.heads))
			left -= n
			g := steps.seq(ch, s)
			if g == nil {
				continue
			}
			for h := range n {
				d, hc := g.demand(h), &sc.heads[h]
				hc.setTokens(hc.tokens[LevelHi]-d.HiDelta, hc.tokens[LevelLo]-d.LoDelta)
			}
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
