// Package serving implements the DiffKV serving engine of paper §6.1 as a
// discrete-event simulator: a continuous-batching scheduler admits as many
// requests as KV memory allows, each inference step's latency is composed
// from the gpusim cost model (scheduler, memory management, KV compressor,
// model execution — the Fig. 14 breakdown), and DiffKV runs its real
// counts-mode page manager so compaction work is actually performed, not
// assumed.
//
// The engine is incrementally steppable: Submit queues requests, Step runs
// one batched prompt or generation step and returns the requests it
// completed, and NextTime exposes the clock at which the next step would
// execute. The engine has no driver of its own: the cluster package's
// event loop interleaves Step calls across one or many engines behind a
// router, and is the only product code that builds and drives one.
package serving

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"diffkv/internal/baselines"
	"diffkv/internal/gpusim"
	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/offload"
	"diffkv/internal/quant"
	"diffkv/internal/synth"
	"diffkv/internal/trace"
	"diffkv/internal/workload"
)

// PageBytes is the page manager's unified-page size at serving scale.
const PageBytes = 65536

// Config parameterizes one serving run.
type Config struct {
	Model   *synth.ModelConfig
	Cluster *gpusim.Cluster
	// Traits selects the compression method's serving behaviour.
	Traits baselines.ServingTraits
	// UseManager runs the real counts-mode page manager of package kvcache
	// (DiffKV); otherwise capacity is tracked analytically (baselines).
	UseManager bool
	// HiFrac / LoFrac are the mean per-head tier fractions for the
	// workload (measured by the core engine); per-head values jitter
	// around them. Only used with UseManager.
	HiFrac, LoFrac float64
	// HiPrec / LoPrec override the manager's storage tiers (defaults
	// K8V4 / K4V2, the paper's configuration; only with UseManager).
	HiPrec, LoPrec quant.Precision
	// MaxGenLen truncates generations (the paper's per-model generation
	// limits: 16K for QwQ-32B, 8K for Qwen2.5-32B, 4K otherwise).
	MaxGenLen int
	// MemoryReserve is the fraction of post-weights device memory held
	// back for activations (default 0.1).
	MemoryReserve float64
	// PrefixCacheGroups enables cross-request prefix-cache modeling: the
	// engine keeps the KV of up to this many distinct prefix groups
	// resident (LRU), and admitting a request whose PrefixGroup is cached
	// skips recomputing those prompt tokens (shorter prompt step, less
	// compressor work). Memory sharing of the cached prefix is not
	// modeled — only the compute saving. 0 disables.
	PrefixCacheGroups int
	// PreemptPolicy selects how the preemption victim (always the
	// youngest sequence) comes back when a step runs out of KV pages:
	// one of recompute, swap, compress-swap. "recompute" (restart from
	// scratch) is the default, "swap" offloads the victim's pages to the
	// host tier over PCIe and resumes where it stopped, and
	// "compress-swap" re-quantizes the victim entirely into the
	// low-precision tier, then swaps the smaller payload. Swap policies
	// require UseManager and HostMemoryBytes > 0.
	PreemptPolicy string
	// HostMemoryBytes sizes the host-memory offload tier (0 disables it;
	// requires UseManager). With PrefixCacheGroups enabled, prefix groups
	// evicted from the GPU prefix cache spill to the host tier instead of
	// vanishing, and admissions consult it on a GPU miss.
	HostMemoryBytes int64
	// XferFault, when non-nil, is consulted once per host<->device KV
	// transfer (swap-out, swap-in, host-prefix promotion); returning
	// true fails that transfer: a faulted swap-out falls back to
	// recompute recovery, a faulted swap-in or promotion stays put and
	// retries on a later scheduler pass. Wired by the fault-injection
	// layer (internal/faults) to a seeded draw so runs stay
	// reproducible.
	XferFault func() bool
	// BrownoutQueueDepth enables graceful degradation under pressure:
	// when the pending queue is at least this deep at admission, the
	// request enters at the all-low compression tier (its high-precision
	// budget shifted into the low tier), trading fidelity for memory
	// headroom so the queue drains faster. 0 disables. Manager mode
	// only — traits-mode capacity is analytic and unaffected.
	BrownoutQueueDepth int
	// Tracer receives admission/preemption/completion/step events when
	// non-nil (see the trace package).
	Tracer trace.Tracer
	Seed   uint64
}

func (c *Config) validate() error {
	if c.Model == nil || c.Cluster == nil {
		return fmt.Errorf("serving: Model and Cluster are required")
	}
	if c.Traits.Name == "" {
		return fmt.Errorf("serving: Traits are required")
	}
	if c.MaxGenLen <= 0 {
		c.MaxGenLen = 4096
	}
	if c.MemoryReserve <= 0 {
		c.MemoryReserve = 0.1
	}
	if c.HiFrac <= 0 {
		c.HiFrac = 0.25
	}
	if c.LoFrac < 0 {
		c.LoFrac = 0.25
	}
	if c.HostMemoryBytes > 0 && !c.UseManager {
		return fmt.Errorf("serving: host offload tier requires UseManager")
	}
	return nil
}

// StepBreakdown accumulates per-component time (Fig. 14, extended with the
// offload tier's PCIe stalls).
type StepBreakdown struct {
	Scheduler  gpusim.Micros
	MemMgmt    gpusim.Micros
	Compressor gpusim.Micros
	ModelExec  gpusim.Micros
	// Offload is host-device transfer time not hidden behind compute:
	// D2H stalls of swap-outs and H2D stalls of swap-ins / host prefix
	// promotions (0 when the host tier is disabled).
	Offload gpusim.Micros
}

// Add accumulates o into s, component by component.
func (s *StepBreakdown) Add(o StepBreakdown) {
	s.Scheduler += o.Scheduler
	s.MemMgmt += o.MemMgmt
	s.Compressor += o.Compressor
	s.ModelExec += o.ModelExec
	s.Offload += o.Offload
}

// Total returns the summed step time.
func (s StepBreakdown) Total() gpusim.Micros {
	return s.Scheduler + s.MemMgmt + s.Compressor + s.ModelExec + s.Offload
}

// Result summarizes one serving run.
type Result struct {
	// Throughput is generated tokens per simulated second.
	Throughput float64
	// AvgBatch is the time-weighted mean number of running requests.
	AvgBatch float64
	// AvgPerTokenLatency is mean (completion-arrival)/genLen in seconds
	// per token (queueing included) — the Fig. 16 metric.
	AvgPerTokenLatency float64
	// Completed requests.
	Completed int
	// ElapsedSeconds of simulated time.
	ElapsedSeconds float64
	// Prompt / Gen accumulate the per-phase component breakdowns.
	Prompt, Gen StepBreakdown
	// PromptSteps / GenSteps count executed steps per phase.
	PromptSteps, GenSteps int
	// GoodputTokensPerSec counts only completed requests' generated
	// tokens per simulated second: work a recompute preemption throws
	// away and regenerates is excluded, unlike Throughput.
	GoodputTokensPerSec float64
	// Preemptions counts preemption events across the run (recompute and
	// swap recoveries alike).
	Preemptions int
	// OffloadTransferSeconds is total PCIe transfer time of swap and
	// prefix-promotion traffic before overlap; OffloadStallSeconds is the
	// portion not hidden behind compute (the Offload component summed
	// over both phases — 0 when transfers fully overlap).
	OffloadTransferSeconds float64
	OffloadStallSeconds    float64
	// Offload snapshots the host-tier counters (zero-valued when the
	// tier is disabled).
	Offload offload.Metrics
}

// Completion records one finished request with its latency-defining
// timestamps; TTFTUs, E2EUs and LatencySec derive the latencies.
type Completion struct {
	Req workload.Request
	// FirstTokenUs is the clock when the prompt phase finished (the first
	// output token). After a recompute preemption it reflects the retry.
	FirstTokenUs float64
	// DoneUs is the clock at completion.
	DoneUs float64
	// CachedPrefixTokens counts prompt tokens served from the prefix
	// cache (0 unless PrefixCacheGroups is enabled and the group was hot).
	CachedPrefixTokens int
	// Preemptions is how many times this request was preempted before
	// completing (recompute and swap recoveries alike).
	Preemptions int
	// RetryUs records the clock of each recovery re-admission — a
	// recompute re-admission or a swap-in — so TTFT/TPOT under preemption
	// are honestly attributable (nil when never preempted).
	//diffkv:allow deadcode -- TestEngineDigestPinned hashes every completion's re-admission clocks
	RetryUs []float64
	// Phases attributes the request's end-to-end latency
	// (DoneUs - Req.ArrivalUs) across lifecycle phases — queue, prefill,
	// decode, and the preemption phases stall/swapped. The buckets are
	// maintained at every scheduler transition, so they sum to the
	// end-to-end latency exactly.
	Phases trace.PhaseBreakdown
	// Attempts is how many instances dispatched this request: 1 when it
	// completed where it first landed, more after crash re-dispatches.
	// ArrivalUs is preserved across re-dispatches, so TTFT/E2E honestly
	// include the time lost to dead instances.
	Attempts int
	// Inst is the 1-based fleet instance that completed the request in
	// cluster runs (the cluster stamps it when collecting completions);
	// 0 from a bare engine.
	Inst int
}

// TTFTUs is the time to first token: arrival to the end of the prompt
// phase, in microseconds.
func (c Completion) TTFTUs() float64 { return c.FirstTokenUs - c.Req.ArrivalUs }

// E2EUs is the end-to-end latency, arrival to completion, in microseconds.
func (c Completion) E2EUs() float64 { return c.DoneUs - c.Req.ArrivalUs }

// LatencySec returns the request's TTFT, TPOT (time per output token
// after the first; 0 for a request that generates nothing) and
// end-to-end latency in seconds — the units every metrics sink records.
func (c Completion) LatencySec() (ttft, tpot, e2e float64) {
	if c.Req.GenLen > 0 {
		tpot = (c.DoneUs - c.FirstTokenUs) / 1e6 / float64(c.Req.GenLen)
	}
	return c.TTFTUs() / 1e6, tpot, c.E2EUs() / 1e6
}

// prefixEntry tracks one resident shared-prefix group.
type prefixEntry struct {
	tokens  int
	lastUse gpusim.Micros
}

// Engine is the serving simulator.
type Engine struct {
	cfg      Config
	dev      *gpusim.Device
	kv       kvStore              // the KV seam (store.go)
	tiered   *offload.TieredStore // non-nil when the host tier is enabled
	recovery offload.Recovery     // how a preemption victim comes back
	// capTok is the whole-pool token capacity — the page pool at the
	// configured tier mix on a pageStore, the analytic budget on a
	// countStore; promptCompress says whether prompt steps run the KV
	// compressor (the page manager always, of the baselines only those
	// that quantize — not Quest or SnapKV). Both are fixed at construction.
	capTok         float64
	promptCompress bool

	// incremental run state (Submit / Step). Every in-flight
	// request is one record (record.go) held by exactly one of the three
	// queues and indexed by request ID in live.
	pending  []*seqState
	running  []*seqState
	swappedQ []*seqState // swapped-out sequences awaiting swap-in
	live     map[int]*seqState
	batch    batchView // running's phases, longest member and finishers (batch.go)
	// residentTok and swappedTok are the summed tokens() of running and
	// swappedQ, kept where a record joins or leaves either queue or grows
	// while running, so the router's per-arrival view of the fleet does
	// not re-sum every batch
	residentTok  int
	swappedTok   int
	clock        gpusim.Micros
	admitBlocked bool
	genTokens    int64
	doneTokens   int64 // generated tokens of completed requests only
	preemptTotal int
	batchTimeUs  float64
	latencySum   float64
	busyUs       gpusim.Micros
	agg          Result
	prefix       map[int]*prefixEntry
	pendingXfer  gpusim.Micros // H2D prefetch charged to the next step
	xferUs       gpusim.Micros // total PCIe transfer time, pre-overlap

	// fault-tolerance state (faulttol.go)
	slowFactor  float64 // step-time multiplier while degraded (<=1 = none)
	brownoutN   int     // admissions made at the all-low tier
	lostKVBytes int64   // GPU KV bytes lost to crashes

	// disaggregated handoff state (handoff.go): exports is the mailbox of
	// records that have already left — captured KVExports awaiting cluster
	// pickup — and pendingNIC is the landed transfers' ingest DMA charged
	// to the next step overlapped against its compute
	exports    map[int]*KVExport
	pendingNIC gpusim.Micros

	// session state (Open): sessN counts the live records
	// that carry a session handle (see session.go)
	sessN          int
	cancelledN     int
	inStep         bool // a scheduler iteration is executing
	deferredCancel bool // Cancel() arrived mid-step; reap when it ends
}

// NewEngine builds a serving engine.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg, dev: cfg.Cluster.Device,
		live: make(map[int]*seqState), exports: make(map[int]*KVExport)}
	if cfg.PrefixCacheGroups > 0 {
		e.prefix = make(map[int]*prefixEntry)
	}
	recovery, err := offload.RecoveryFor(cfg.PreemptPolicy)
	if err != nil {
		return nil, err
	}
	if recovery != offload.RecoverRecompute && (cfg.HostMemoryBytes <= 0 || !cfg.UseManager) {
		return nil, fmt.Errorf("serving: preempt policy %q requires UseManager and HostMemoryBytes > 0",
			cfg.PreemptPolicy)
	}
	e.recovery = recovery

	weights := cfg.Model.ParamsB * 2e9
	budget := float64(cfg.Cluster.TotalMemory()) - weights
	if budget <= 0 {
		return nil, fmt.Errorf("serving: %s does not fit on %d GPUs", cfg.Model.Name, cfg.Cluster.GPUs)
	}
	budget *= 1 - cfg.MemoryReserve

	if cfg.UseManager {
		numPages := int(budget) / PageBytes
		if numPages < 16 {
			return nil, fmt.Errorf("serving: KV budget too small (%d pages)", numPages)
		}
		mgr, err := kvcache.NewManager(kvcache.Config{
			Dim:       cfg.Model.HeadDim,
			PageBytes: PageBytes,
			NumPages:  numPages,
			HiPrec:    cfg.HiPrec,
			LoPrec:    cfg.LoPrec,
			MaxSeqLen: cfg.Model.MaxSeqLen,
		})
		if err != nil {
			return nil, err
		}
		if cfg.HostMemoryBytes > 0 {
			if e.tiered, err = offload.NewTieredStore(mgr, cfg.HostMemoryBytes); err != nil {
				return nil, err
			}
		}
		ps := newPageStore(cfg, mgr)
		// every page of the pool with every head at the blended tier mix
		e.kv, e.capTok = ps, float64(numPages*PageBytes)/(ps.blendTok*float64(ps.heads))
	} else {
		cs := countStore{kvToken: float64(cfg.Model.KVBytesPerTokenFP16()) * cfg.Traits.ResidentMemFrac}
		e.kv, e.capTok = cs, float64(int(budget/cs.kvToken))
	}
	e.promptCompress = cfg.UseManager || cfg.Traits.AttnBytesFrac < 1 &&
		cfg.Traits.Name != "Quest" && cfg.Traits.Name != "SnapKV"
	return e, nil
}

// TotalTokenCapacity reports the engine's whole-pool token capacity —
// free plus used pages at the blended tier mix in manager mode, the
// fixed traits-mode budget otherwise. This is the memory axis of the
// saturation analyzer's capacity = min(memory, compute); the engine has
// no independent compute-token bound (admission is memory-gated via
// fitsTokens), so memory capacity is the binding axis.
func (e *Engine) TotalTokenCapacity() float64 { return e.capTok }

// emit sends a trace event when a tracer is configured.
func (e *Engine) emit(ev trace.Event) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.Emit(ev)
	}
}

// Submit queues a request for admission at its arrival time. Submit is
// the accept point of a request's lifecycle: its record is created here,
// phase accounting opens (queueing from arrival) and the open trace event
// is emitted.
func (e *Engine) Submit(r workload.Request) { e.submit(r, nil) }

func (e *Engine) submit(r workload.Request, s *Session) {
	st := &seqState{req: r}
	st.cur, st.AsOfUs, st.Attempts, st.Sess = trace.PhaseQueue, r.ArrivalUs, 1, s
	e.enter(st)
	e.emit(trace.Event{Kind: trace.KindOpen, TimeUs: r.ArrivalUs, Seq: r.ID})
}

// HasWork reports whether any requests are queued, in flight or swapped
// out to the host tier.
func (e *Engine) HasWork() bool {
	return len(e.running) > 0 || len(e.pending) > 0 || len(e.swappedQ) > 0
}

// NextTime returns the simulated time at which the next Step would begin,
// and false when the engine has no work.
func (e *Engine) NextTime() (gpusim.Micros, bool) {
	if len(e.running) > 0 || len(e.swappedQ) > 0 {
		return e.clock, true
	}
	if len(e.pending) > 0 {
		t := e.clock
		if a := gpusim.Micros(e.pending[0].req.ArrivalUs); a > t {
			t = a
		}
		return t, true
	}
	return 0, false
}

// Clock returns the engine's simulated clock in microseconds.
func (e *Engine) Clock() gpusim.Micros { return e.clock }

// Device returns the engine's GPU device model (for cross-instance cost
// models — the cluster prices NIC transfers with the receiver's device).
func (e *Engine) Device() *gpusim.Device { return e.dev }

// QueueDepth returns how many submitted requests await admission.
func (e *Engine) QueueDepth() int { return len(e.pending) }

// arrivedPending counts the queued requests that have arrived by now: a
// session Open is clamped to the fleet clock, which can sit ahead of a
// lagging engine's clock, so a request can be queued before it arrives
// here; it is no queue pressure yet. pending is sorted by arrival, so
// this is a binary search.
func (e *Engine) arrivedPending() int {
	now := float64(e.clock)
	return sort.Search(len(e.pending), func(i int) bool { return e.pending[i].req.ArrivalUs > now })
}

// RunningCount returns the number of admitted, in-flight requests.
func (e *Engine) RunningCount() int { return len(e.running) }

// ResidentTokens returns the cached KV tokens of all running sequences —
// the load signal a least-loaded router balances on. The count is kept
// as records move, so the call is O(1).
func (e *Engine) ResidentTokens() int { return e.residentTok }

// BusyTime returns the cumulative simulated time spent executing steps
// (the engine is idle for the remainder of its clock).
func (e *Engine) BusyTime() gpusim.Micros { return e.busyUs }

// SwappedTokens returns the KV tokens of swapped-out sequences — load
// that is latent rather than GPU-resident, which offload-aware routing
// weighs separately from ResidentTokens. Kept like ResidentTokens: O(1).
func (e *Engine) SwappedTokens() int { return e.swappedTok }

// run moves an admitted record into the running batch, opening phase ph.
func (e *Engine) run(st *seqState, ph trace.Phase) {
	e.running = append(e.running, st)
	e.residentTok += st.tokens()
	st.at = atRunning
	st.phaseTo(ph, float64(e.clock))
	e.batch.join(st)
}

// admit moves due work into the running batch while capacity allows.
// Swapped-out sequences resume first (swap-in preserves their progress and
// they hold pinned host memory), then due pending requests are admitted.
// After a preemption the capacity heuristic has proven optimistic, so
// admissions hold until a completion frees real pages (admitBlocked) —
// except onto an empty engine, where progress must be guaranteed.
func (e *Engine) admit() error {
	// Swapped sequences get the first shot at freed pages (they resume
	// with their progress intact), but a swapped sequence that does not
	// fit yet must not convoy smaller fresh admissions behind it — the
	// pending loop below still runs.
	for len(e.swappedQ) > 0 {
		if e.admitBlocked && len(e.running) > 0 {
			break
		}
		st := e.swappedQ[0]
		if len(e.running) > 0 && !e.fitsTokens(st.projected()) {
			break
		}
		if e.xferFault() {
			break // H2D transfer faulted; the sequence retries next pass
		}
		res, err := e.tiered.SwapIn(st.req.ID, float64(e.clock))
		if err != nil {
			break // GPU pages not yet available; retry after a completion
		}
		shift(&e.swappedQ)
		e.swappedTok -= st.tokens()
		// H2D prefetch: the transfer stall is charged to the next step,
		// overlapped against its compute
		xfer := e.dev.PCIe.Transfer(float64(res.Bytes))
		e.pendingXfer += xfer
		e.xferUs += xfer
		st.RetryUs = append(st.RetryUs, float64(e.clock))
		e.run(st, trace.PhaseDecode)
		e.emit(trace.Event{Kind: trace.KindSwapIn, TimeUs: float64(e.clock), Seq: st.req.ID,
			Bytes: res.Bytes, DurUs: float64(xfer)})
	}
	for len(e.pending) > 0 && float64(e.clock) >= e.pending[0].req.ArrivalUs {
		st := e.pending[0]
		r := st.req
		if e.admitBlocked && len(e.running) > 0 {
			break
		}
		// shipped prefilled sequences adopt their exported page shape
		// instead of re-running the prompt (disaggregated handoff)
		if st.adopt != nil {
			admitted, err := e.admitAdopted(st)
			if err != nil {
				return err
			}
			if !admitted {
				break // pages not yet available; retry after a completion
			}
			continue
		}
		if len(e.running) > 0 && !e.hasCapacityFor(st) {
			break
		}
		st.req.GenLen = min(st.req.GenLen, e.cfg.MaxGenLen)
		// brownout: with the queue this deep (the popped request
		// included), admit at the all-low tier for memory headroom
		st.brownout = e.cfg.BrownoutQueueDepth > 0 && e.arrivedPending() >= e.cfg.BrownoutQueueDepth
		if e.prefix != nil && r.PrefixGroup != 0 {
			ent, ok := e.prefix[r.PrefixGroup]
			if !ok && e.tiered != nil && e.tiered.HostPrefixTokens(r.PrefixGroup) > 0 && e.xferFault() {
				// H2D promotion faulted: treat as a miss; the spilled entry
				// stays in the host tier for the group's next request
			} else if !ok && e.tiered != nil {
				// GPU prefix miss: consult the host tier and promote a
				// spilled entry back, paying H2D for its compressed bytes
				if tok, bytes, hok := e.tiered.TakePrefix(r.PrefixGroup, float64(e.clock)); hok {
					ent = e.insertPrefix(r.PrefixGroup)
					ent.tokens = tok
					xfer := e.dev.PCIe.Transfer(float64(bytes))
					e.pendingXfer += xfer
					e.xferUs += xfer
					e.emit(trace.Event{Kind: trace.KindHostPrefixHit, TimeUs: float64(e.clock), Seq: r.ID,
						Bytes: bytes, DurUs: float64(xfer)})
					ok = true
				}
			}
			if ok {
				c := ent.tokens
				if c > r.PrefixLen {
					c = r.PrefixLen
				}
				// at least a tail of the prompt is always recomputed
				if lim := st.req.PromptLen - 16; c > lim {
					c = lim
				}
				if c > 0 {
					st.cached = c
				}
				ent.lastUse = e.clock
			}
		}
		if err := e.kv.register(st); err != nil {
			return err
		}
		shift(&e.pending)
		if st.cur == trace.PhaseStall {
			// a recompute victim coming back; a crash orphan's first
			// admission here queues instead, its re-dispatch already in
			// RetryUs
			st.RetryUs = append(st.RetryUs, float64(e.clock))
		}
		e.run(st, trace.PhasePrefill)
		ev := trace.Event{Kind: trace.KindAdmit, TimeUs: float64(e.clock), Seq: st.req.ID}
		if st.brownout {
			e.brownoutN++
			ev.Note = "brownout"
		}
		e.emit(ev)
	}
	return nil
}

// touchPrefix records a completed prompt's shared prefix as resident,
// evicting the least-recently-used group beyond capacity.
func (e *Engine) touchPrefix(st *seqState) {
	if e.prefix == nil || st.req.PrefixGroup == 0 {
		return
	}
	n := st.req.PrefixLen
	if n > st.req.PromptLen {
		n = st.req.PromptLen
	}
	ent := e.prefix[st.req.PrefixGroup]
	if ent == nil {
		ent = e.insertPrefix(st.req.PrefixGroup)
	}
	if n > ent.tokens {
		ent.tokens = n
	}
	ent.lastUse = e.clock
}

// insertPrefix adds a GPU prefix-cache entry for group, first evicting
// the least-recently-used groups (ties broken by lowest group ID) until
// it fits. When the host tier is enabled, evicted entries spill there
// with their compressed byte footprint instead of vanishing.
func (e *Engine) insertPrefix(group int) *prefixEntry {
	for len(e.prefix) >= e.cfg.PrefixCacheGroups {
		victim, ok := mathx.OldestKey(e.prefix, func(en *prefixEntry) gpusim.Micros { return en.lastUse })
		if !ok {
			break
		}
		if e.tiered != nil {
			vic := e.prefix[victim]
			e.tiered.SpillPrefix(victim, vic.tokens, e.kv.estBytes(vic.tokens), float64(e.clock))
		}
		delete(e.prefix, victim)
	}
	ent := &prefixEntry{}
	e.prefix[group] = ent
	return ent
}

// Step executes one scheduler iteration: reap cancelled sessions,
// idle-advance the clock to the next arrival if nothing is running, admit
// due requests, run one batched prompt or generation step (prompts
// prioritized, vLLM-style), requeue any preempted sequences, and return
// the requests completed by this step. Calling Step with no due work is a
// no-op returning (nil, nil).
func (e *Engine) Step() ([]Completion, error) {
	e.ReapSessions()
	e.inStep = true
	done, err := e.step()
	e.inStep = false
	if e.deferredCancel {
		// a token callback cancelled a session mid-step; free its state
		// now that the running set is no longer under iteration
		e.ReapSessions()
	}
	return done, err
}

// step is the scheduler iteration body (sessions already reaped).
func (e *Engine) step() ([]Completion, error) {
	if len(e.running) == 0 && len(e.swappedQ) == 0 {
		if len(e.pending) == 0 {
			return nil, nil
		}
		// idle until next arrival
		if a := e.pending[0].req.ArrivalUs; float64(e.clock) < a {
			e.clock = gpusim.Micros(a)
		}
	}
	if err := e.admit(); err != nil {
		return nil, err
	}
	if len(e.running) == 0 {
		return nil, nil
	}

	// prompts first (vLLM-style prioritized prompt steps): a step runs the
	// prompt-phase members while there are any, else one generation step
	// over the whole running batch
	var bd StepBreakdown
	var preempted, swapped []*seqState
	var err error
	isPrompt := len(e.batch.prompting) > 0
	batch := len(e.running)
	if isPrompt {
		bd, preempted, err = e.promptStep(e.batch.prompting)
	} else {
		bd, preempted, swapped, err = e.genStep(e.running)
	}
	if err != nil {
		// even on a fatal step error the victims already processed must be
		// booked (released victims requeued, swapped victims queued for
		// swap-in) so a caller that keeps the engine alive sees consistent
		// state: nothing both host-resident and running, no pinned host
		// bytes without a swappedQ entry
		e.recordPreemptions(preempted, swapped)
		e.batch.promptsRan()
		return nil, err
	}
	// H2D prefetch stall from swap-ins and host prefix promotions admitted
	// before this step, overlapped against its compute
	if e.pendingXfer > 0 {
		bd.Offload += e.dev.PCIe.Stall(e.pendingXfer, bd.ModelExec+bd.Compressor)
		e.pendingXfer = 0
	}
	// NIC ingest stall from disagg adoptions admitted before this step
	if e.pendingNIC > 0 {
		bd.Offload += e.dev.NIC.Stall(e.pendingNIC, bd.ModelExec+bd.Compressor)
		e.pendingNIC = 0
	}
	if isPrompt {
		e.agg.Prompt.Add(bd)
		e.agg.PromptSteps++
	} else {
		e.agg.Gen.Add(bd)
		e.agg.GenSteps++
		e.genTokens += int64(batch - len(preempted) - len(swapped))
	}
	e.recordPreemptions(preempted, swapped)
	stepTime := bd.Total()
	if e.slowFactor > 1 {
		// degraded window (fault injection): every step stretches by the
		// slowdown factor — straggler GPU, thermal throttle
		stepTime = gpusim.Micros(float64(stepTime) * e.slowFactor)
	}
	e.clock += stepTime
	e.busyUs += stepTime
	e.batchTimeUs += float64(len(e.running)) * float64(stepTime)
	stepKind := trace.KindGenStep
	if isPrompt {
		stepKind = trace.KindPromptStep
	}
	e.emit(trace.Event{Kind: stepKind, TimeUs: float64(e.clock),
		Batch: len(e.running), DurUs: float64(stepTime)})

	// first-token timestamps, prefix-cache residency and session progress
	// for prompts that finished in this step; then per-token session
	// updates (only the members that generated this step have news)
	for _, st := range e.batch.prompting {
		if st.promptDone && st.firstTokUs == 0 {
			st.firstTokUs = float64(e.clock)
			st.phaseTo(trace.PhaseDecode, float64(e.clock))
			e.emit(trace.Event{Kind: trace.KindFirstToken, TimeUs: float64(e.clock), Seq: st.req.ID})
			e.touchPrefix(st)
			e.notifyFirstToken(st)
		}
	}
	e.batch.promptsRan()
	e.notifyGenProgress(e.running)
	return e.sweep()
}

// sweep completes this step's finishers: they come off the finisher heap
// in running order, leave through complete, and e.running is compacted
// in place from the first of them. After a teardown error the remaining
// records are kept as they are so the slice stays whole.
func (e *Engine) sweep() ([]Completion, error) {
	fin := e.batch.finishers()
	if len(fin) == 0 {
		return nil, nil
	}
	first, _ := slices.BinarySearchFunc(e.running, fin[0].stamp, func(st *seqState, stamp uint64) int {
		return cmp.Compare(st.stamp, stamp)
	})
	var done []Completion
	var err error
	kept := e.running[:first]
	k := 0
	for _, st := range e.running[first:] {
		if k == len(fin) || st != fin[k] {
			kept = append(kept, st)
			continue
		}
		k++
		if err != nil {
			e.batch.refile(st)
			kept = append(kept, st)
			continue
		}
		e.residentTok -= st.tokens()
		e.batch.leave(st)
		var cp Completion
		if cp, err = e.complete(st); err == nil {
			done = append(done, cp)
		}
	}
	clear(fin)
	clear(e.running[len(kept):])
	e.running = kept
	return done, err
}

// complete takes a finished sequence off the engine and returns its
// Completion. A handoff-marked prefill child is exported on the way out:
// its KV shape and both record halves go to the exports mailbox for the
// cluster to ship (TakeExport), and its session — detached, not finished
// — rides along to rebind on the decode engine.
func (e *Engine) complete(st *seqState) (Completion, error) {
	now := float64(e.clock)
	if st.req.GenLen > 0 { // a request that generates nothing adds 0, as in Completion.LatencySec
		e.latencySum += (now - st.req.ArrivalUs) / 1e6 / float64(st.req.GenLen)
	}
	e.agg.Completed++
	e.emit(trace.Event{Kind: trace.KindComplete, TimeUs: now, Seq: st.req.ID})
	// close the breakdown; the phase opened here only matters to an export,
	// whose record lives on while its KV crosses the wire
	st.phaseTo(trace.PhaseXferInst, now)
	exported := st.handoffGen > 0
	if exported {
		// before retire: the export reads the KV shape off the live pages
		if err := e.exportSeq(st); err != nil {
			return Completion{}, err
		}
	}
	if err := e.retire(st); err != nil {
		return Completion{}, err
	}
	e.doneTokens += int64(st.req.GenLen - st.adoptedGen)
	cp := Completion{
		Req:                st.req,
		FirstTokenUs:       st.firstTokUs,
		DoneUs:             now,
		CachedPrefixTokens: st.cached,
		Preemptions:        st.Preempts,
		RetryUs:            st.RetryUs,
		Phases:             st.Phases,
		Attempts:           st.Attempts,
	}
	if s := st.Sess; s != nil && !exported {
		s.generated = st.req.GenLen
		s.finish(cp, nil)
	}
	return cp, nil
}

// recordPreemptions books this step's victims: recompute victims lose
// their progress and go back to the front of pending (restart from
// scratch), swap victims join the swapped queue (resume via swap-in),
// both leave the running set, and admissions hold until a completion
// frees real pages.
func (e *Engine) recordPreemptions(preempted, swapped []*seqState) {
	if len(preempted)+len(swapped) == 0 {
		return
	}
	now := float64(e.clock)
	for _, st := range preempted {
		e.residentTok -= st.tokens() // before the reset drops generated
		e.batch.leave(st)
		st.progress = progress{}
		e.evict(st, atQueue, trace.PhaseStall)
		e.emit(trace.Event{Kind: trace.KindPreempt, TimeUs: now, Seq: st.req.ID})
	}
	for _, st := range swapped {
		n := st.tokens()
		e.residentTok -= n
		e.batch.leave(st)
		e.swappedTok += n
		e.evict(st, atSwapped, trace.PhaseSwapped)
		e.emit(trace.Event{Kind: trace.KindSwapOut, TimeUs: now, Seq: st.req.ID,
			Bytes: st.swapBytes, DurUs: float64(e.dev.PCIe.Transfer(float64(st.swapBytes)))})
	}
	e.pending = slices.Insert(e.pending, 0, preempted...)
	e.swappedQ = append(e.swappedQ, swapped...)
	e.running = slices.DeleteFunc(e.running, func(st *seqState) bool { return st.at != atRunning })
	e.admitBlocked = true
}

// evict books one preemption: the victim's residency and open phase
// change and the preemption is counted on its record and on the engine.
func (e *Engine) evict(st *seqState, to residency, ph trace.Phase) {
	st.at = to
	st.Preempts++
	e.preemptTotal++
	st.phaseTo(ph, float64(e.clock))
}

// Result snapshots the aggregate metrics accumulated so far. It does not
// mutate engine state, so it may be called mid-run.
func (e *Engine) Result() Result {
	res := e.agg
	res.ElapsedSeconds = e.clock.Seconds()
	if res.ElapsedSeconds > 0 {
		res.Throughput = float64(e.genTokens) / res.ElapsedSeconds
		res.GoodputTokensPerSec = float64(e.doneTokens) / res.ElapsedSeconds
		res.AvgBatch = e.batchTimeUs / float64(e.clock)
	}
	if res.Completed > 0 {
		res.AvgPerTokenLatency = e.latencySum / float64(res.Completed)
	}
	res.Preemptions = e.preemptTotal
	res.OffloadTransferSeconds = e.xferUs.Seconds()
	res.OffloadStallSeconds = (res.Prompt.Offload + res.Gen.Offload).Seconds()
	if e.tiered != nil {
		res.Offload = e.tiered.Metrics()
	}
	return res
}

// hasCapacityFor conservatively checks that admitting cand keeps usage under
// the high watermark (85%), accounting for the tokens running sequences
// will still generate, and that the store has room for its prompt.
func (e *Engine) hasCapacityFor(cand *seqState) bool {
	return e.fitsTokens(cand.projected()) && e.kv.promptFits(cand, e.batch.prompting)
}

// fitsTokens checks whether needed more tokens keep usage under the high
// watermark given the running set's projected demand.
func (e *Engine) fitsTokens(needed float64) bool {
	var current float64
	for _, st := range e.running {
		current += st.projected()
	}
	return (current + needed) <= 0.85*e.capTok
}

// promptStep runs one batched prompt step for the given sequences. It
// returns any sequences preempted for lack of pages (vLLM-style recompute
// preemption): they must be re-admitted later.
func (e *Engine) promptStep(seqs []*seqState) (StepBreakdown, []*seqState, error) {
	cfg := e.cfg
	dev := e.dev
	var bd StepBreakdown
	batch := len(seqs)
	bd.Scheduler = dev.SchedulerOverhead(batch)

	// cached prefix tokens (prefix-cache hits) need no recompute: they
	// shorten the prompt pass and the compressor's input
	var tokens int
	for _, st := range seqs {
		tokens += st.req.PromptLen - st.cached
	}

	// model execution: tensor-parallel linear layers + prompt attention
	weightsPerGPU := cfg.Model.ParamsB * 2e9 / float64(cfg.Cluster.GPUs)
	exec := dev.LinearLayers(weightsPerGPU, tokens)
	if cfg.Cluster.GPUs > 1 {
		exec += gpusim.Micros(float64(cfg.Model.Layers) * 15) // allreduce per layer
	}
	bd.ModelExec = exec

	// compressor: quantize all prompt tokens' K/V
	if e.promptCompress {
		kvBytes := float64(tokens) * float64(cfg.Model.KVBytesPerTokenFP16()) / float64(cfg.Cluster.GPUs)
		bd.Compressor = dev.CompressorKernel(kvBytes * cfg.Traits.AttnBytesFrac)
	}

	// memory management
	var work kvcache.CompactStats
	var preempted []*seqState
	for _, st := range seqs {
		w, err := e.kv.prompt(st)
		if err != nil {
			// out of pages: recompute-preempt this sequence
			if rerr := e.kv.release(st); rerr != nil {
				return bd, preempted, rerr
			}
			preempted = append(preempted, st)
			continue
		}
		st.promptDone = true
		e.batch.generate(st)
		work.Add(w)
	}
	bd.MemMgmt = e.kv.memMgmtTime(work, batch)

	// HF-based frameworks pay per-step host overhead
	if cfg.Traits.FrameworkOverhead > 1 {
		bd.Scheduler += gpusim.Micros((cfg.Traits.FrameworkOverhead - 1) * 3000)
	}

	return bd, preempted, nil
}

// genStep runs one batched generation step over seqs, which is e.running
// itself: a generation step runs only when no member is in the prompt
// phase. It returns the sequences preempted for lack of pages, split by
// recovery: recompute victims (restart from scratch) and swap victims
// (offloaded to the host tier, resumable). The victim is always the
// youngest sequence; the configured recovery decides the split, with
// recompute as the fallback when the host tier refuses a swap.
func (e *Engine) genStep(seqs []*seqState) (StepBreakdown, []*seqState, []*seqState, error) {
	cfg := e.cfg
	dev := e.dev
	var bd StepBreakdown
	batch := len(seqs)
	bd.Scheduler = dev.SchedulerOverhead(batch)

	weightsPerGPU := cfg.Model.ParamsB * 2e9 / float64(cfg.Cluster.GPUs)
	exec := dev.LinearLayers(weightsPerGPU, batch)
	if cfg.Cluster.GPUs > 1 {
		exec += gpusim.Micros(float64(cfg.Model.Layers) * 15)
	}

	// attention over cached tokens: seqs is the whole running batch, so
	// its summed tokens are residentTok (a float64 sum of ints below 2^53
	// is exact in any order, so the conversion has the same bits)
	cachedTokens := float64(e.residentTok)
	longest := e.batch.longest()
	attnBytes := cachedTokens * float64(cfg.Model.KVBytesPerTokenFP16()) *
		cfg.Traits.AttnBytesFrac / float64(cfg.Cluster.GPUs)
	seqSplits := 1
	if longest > 8192 {
		seqSplits = longest / 8192
	}
	attn := dev.AttentionKernel(attnBytes, cfg.Traits.AttnBytesFrac < 1, seqSplits)
	attn += gpusim.Micros(float64(attn) * cfg.Traits.EstimateCost)
	if cfg.Traits.FrameworkOverhead > 1 {
		// HF-based runtimes lack kernels that fuse dequantization with
		// attention (paper §7.3): the attention pass reads, dequantizes
		// and re-reads instead of streaming once
		attn = gpusim.Micros(float64(attn) * (1 + 0.35*(cfg.Traits.FrameworkOverhead-1)))
	}
	bd.ModelExec = exec + attn

	// compressor: this step's new K/V for every sequence
	newKV := float64(batch) * float64(cfg.Model.KVBytesPerTokenFP16()) / float64(cfg.Cluster.GPUs)
	bd.Compressor = dev.CompressorKernel(newKV)

	// memory management
	var preempted, swapped []*seqState
	var swapXferBytes float64
	active := seqs // the caller's slice, until a victim leaves the batch
	for {
		memMgmt, err := e.kv.gen(active)
		if err == nil {
			bd.MemMgmt = memMgmt
			seqs = active
			break
		}
		// out of pages: the youngest sequence leaves the batch and the
		// recovery decides how it comes back (recompute from scratch vs
		// swap to the host tier).
		// Error returns carry the victims already processed so Step can
		// book them even when the step itself fails.
		if len(active) <= 1 {
			return bd, preempted, swapped, err
		}
		vi := youngestVictim(active)
		victim := active[vi]
		active = slices.Delete(slices.Clone(active), vi, vi+1)
		recovered := false
		if e.tiered != nil && e.recovery != offload.RecoverRecompute &&
			!e.xferFault() { // a faulted D2H falls back to recompute
			compress := e.recovery == offload.RecoverCompressSwap
			res, serr := e.tiered.SwapOut(victim.req.ID, compress, float64(e.clock))
			if serr == nil {
				if compress {
					// the compress-deeper pass re-quantizes the high
					// tier before the transfer; the sequence resumes
					// all-low, so its future demand follows suit
					bd.Compressor += dev.CompressorKernel(float64(res.RecompressBytes))
					victim.allLow()
				}
				swapXferBytes += float64(res.Bytes)
				victim.swapBytes = res.Bytes
				swapped = append(swapped, victim)
				recovered = true
			}
		}
		if !recovered {
			// recompute: discard the victim's pages entirely
			if rerr := e.kv.release(victim); rerr != nil {
				return bd, preempted, swapped, rerr
			}
			preempted = append(preempted, victim)
		}
	}

	if cfg.Traits.FrameworkOverhead > 1 {
		bd.Scheduler += gpusim.Micros((cfg.Traits.FrameworkOverhead - 1) * 3000)
	}
	if swapXferBytes > 0 {
		// D2H swap traffic: one aggregated transfer, overlapped against
		// this step's kernels up to the device's calibrated fraction
		xfer := dev.PCIe.Transfer(swapXferBytes)
		e.xferUs += xfer
		bd.Offload += dev.PCIe.Stall(xfer, bd.ModelExec+bd.Compressor)
	}

	for _, st := range seqs {
		st.generated++
	}
	e.residentTok += len(seqs)
	e.batch.round++
	return bd, preempted, swapped, nil
}

// youngestVictim returns the index of the preemption victim among seqs:
// the latest arrival (ties: highest request ID), the vLLM ordering. The
// request that joined last has the least sunk work and the best chance
// of re-admission soon.
func youngestVictim(seqs []*seqState) int {
	best := 0
	for i := 1; i < len(seqs); i++ {
		c, b := &seqs[i].req, &seqs[best].req
		if c.ArrivalUs > b.ArrivalUs || (c.ArrivalUs == b.ArrivalUs && c.ID > b.ID) {
			best = i
		}
	}
	return best
}
