// Package telemetry is the cluster-level observability core: per-instance
// time-series rings sampled on a sim-time cadence, mergeable latency
// histograms, a saturation analyzer with hysteretic scale advisories,
// and multi-window SLO burn-rate alerts. Where package trace answers
// "what happened to request 17", telemetry answers "when did instance 2
// saturate, how much headroom is left, and is the TTFT SLO burning" —
// the fleet-level questions an autoscaler or an operator dashboard
// (cmd/diffkv-top) asks. All sampling is driven by the simulated clock,
// never wall time, so a seeded run produces a bit-identical alert
// timeline.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"diffkv/internal/trace"
)

// Config tunes a Center. Zero values take defaults.
type Config struct {
	// SampleIntervalUs is the sim-time sampling cadence (default 1s).
	SampleIntervalUs float64
	// SeriesCapacity bounds each time-series ring (default 512).
	SeriesCapacity int
	// Tracer, when set, receives KindAlert events for advisories and SLO
	// transitions (the same collector the rest of the run traces into,
	// so alerts land in the event timeline).
	Tracer trace.Tracer
	// Saturation tunes the analyzer.
	Saturation SatConfig
	// SLOs declares the objectives to evaluate each tick.
	SLOs []SLOSpec
}

// InstanceStats is one serving instance's load row: its occupancy
// gauges and per-instance counters at one instant. It is the one
// per-instance shape of the stack: serving.Engine.Stats fills the
// engine's fields, the cluster tags the row with Inst, Health,
// Redispatched and Role, a Center keeps the latest row per instance and
// a Snapshot embeds it. serving.InstanceStats is an alias of this type,
// so telemetry never imports serving (the dependency runs one way).
type InstanceStats struct {
	// Inst is the 1-based instance tag (matching trace.Event.Inst in
	// cluster runs).
	Inst int `json:"inst"`
	// Health is the instance's fault-injection state: "healthy",
	// "degraded" (transient slowdown) or "down" (crashed, awaiting
	// restart). Always "healthy" in a cluster without fault injection.
	Health      string `json:"health,omitempty"`
	QueueDepth  int    `json:"queue_depth"`
	Running     int    `json:"running"`
	Swapped     int    `json:"swapped"`
	FreeKVPages int    `json:"free_kv_pages"`
	UsedKVPages int    `json:"used_kv_pages"`
	// ResidentTokens / SwappedTokens are the GPU-resident and host-tier
	// KV token footprints; TokenCapacity is the whole-pool token budget
	// (Engine.TotalTokenCapacity). Together they feed the saturation
	// analyzer: demand = resident + swapped + queued×avg-prompt against
	// capacity.
	ResidentTokens int `json:"resident_tokens"`
	SwappedTokens  int `json:"swapped_tokens"`
	// HostBytes is the host tier's current occupancy — swapped
	// sequences and spilled prefixes (0 without a host tier).
	HostBytes     int64   `json:"host_bytes"`
	TokenCapacity float64 `json:"capacity_tokens"`
	// Per-instance lifetime counters for {inst}-labelled exposition.
	Preemptions  int   `json:"preemptions"`
	SwapOutBytes int64 `json:"swap_out_bytes"`
	SwapInBytes  int64 `json:"swap_in_bytes"`
	// Redispatched counts crash orphans this instance accepted.
	Redispatched int `json:"-"`
	// Role is the instance's disaggregation pool ("prefill", "decode" or
	// "mixed"); empty without disaggregation.
	Role string `json:"-"`
}

// Observation is a whole-fleet sample at one sim instant.
type Observation struct {
	TimeUs                 float64
	ThroughputTokensPerSec float64
	GoodputTokensPerSec    float64
	InstancesUp            int
	Completed              int64
	Rejected               int64
	PerInstance            []InstanceStats
}

// Alert is one emitted advisory or SLO transition, kept in a bounded
// recent-alerts ring and mirrored as a trace.KindAlert event.
type Alert struct {
	TimeUs float64 `json:"time_us"`
	// Inst is the 1-based instance for per-instance advisories, 0 for
	// cluster-wide signals.
	Inst int `json:"inst"`
	// Note is the rendered alert, e.g. "scale_up headroom=0.082" or
	// "slo_burn ttft fast=3.10 slow=2.41".
	Note string `json:"note"`
}

const alertRingCap = 256

// ewma is a simple exponentially weighted moving average.
type ewma struct {
	v   float64
	set bool
}

func (e *ewma) add(x float64) {
	if !e.set {
		e.v, e.set = x, true
		return
	}
	e.v += 0.2 * (x - e.v)
}

// instSeries is what a Center keeps per instance: its queue-depth ring
// and its latest row.
type instSeries struct {
	queueDepth *Series
	last       InstanceStats
}

// LatencySet is one scope's completion latency histograms, in simulated
// seconds: the request-level TTFT/TPOT/E2E distributions and one per
// lifecycle phase (trace.PhaseBreakdown). TPOT skips single-token
// generations; Xfer, Stall and Swapped hold only completions that spent
// time in that phase, so their quantiles are not diluted by zeros. Every
// completion lands in E2E and in each phase it spent time in, so the six
// phase sums add up to the E2E sum.
type LatencySet struct {
	TTFT, TPOT, E2E                              Hist
	Queue, Prefill, Xfer, Decode, Stall, Swapped Hist
}

func (l *LatencySet) merge(o *LatencySet) {
	l.TTFT.Merge(&o.TTFT)
	l.TPOT.Merge(&o.TPOT)
	l.E2E.Merge(&o.E2E)
	l.Queue.Merge(&o.Queue)
	l.Prefill.Merge(&o.Prefill)
	l.Xfer.Merge(&o.Xfer)
	l.Decode.Merge(&o.Decode)
	l.Stall.Merge(&o.Stall)
	l.Swapped.Merge(&o.Swapped)
}

// snapshot summarizes the request-level histograms for JSON exposition.
func (l *LatencySet) snapshot() map[string]LatencySnapshot {
	return map[string]LatencySnapshot{
		"ttft": l.TTFT.snapshot(),
		"tpot": l.TPOT.snapshot(),
		"e2e":  l.E2E.snapshot(),
	}
}

// Center is the telemetry aggregation point. One Center serves one run;
// all methods are safe for concurrent use (the gateway snapshots while
// the driver samples).
type Center struct {
	mu  sync.Mutex
	cfg Config

	// nextSampleUs holds the float64 bits of the next due sample time,
	// stored by Sample. Due loads it without taking mu, because the
	// cluster asks on every step and almost every answer is no.
	nextSampleUs atomic.Uint64
	lastObs      Observation

	inst    map[int]*instSeries
	goodput *Series

	analyzer *Analyzer
	slo      *sloEval

	perInstLat map[int]*LatencySet

	avgPrompt ewma

	satByKey map[int]SatSample

	alerts      []Alert
	alertsStart int
	samples     int64
}

// New creates a Center.
func New(cfg Config) *Center {
	if cfg.SampleIntervalUs <= 0 {
		cfg.SampleIntervalUs = 1e6
	}
	if cfg.SeriesCapacity <= 0 {
		cfg.SeriesCapacity = 512
	}
	return &Center{
		cfg:        cfg,
		inst:       map[int]*instSeries{},
		goodput:    NewSeries(cfg.SeriesCapacity),
		analyzer:   NewAnalyzer(cfg.Saturation, cfg.SeriesCapacity),
		slo:        newSLOEval(cfg.SLOs),
		perInstLat: map[int]*LatencySet{},
		satByKey:   map[int]SatSample{},
	}
}

// Due reports whether a sample is owed at sim time nowUs. Drivers call
// this between steps and, when true, build an Observation and Sample it
// — keeping the expensive stats walk off the common path.
func (c *Center) Due(nowUs float64) bool {
	return nowUs >= math.Float64frombits(c.nextSampleUs.Load())
}

// RecordOpen notes an accepted request's prompt length; the EWMA feeds
// the queued-demand term of the saturation analyzer.
func (c *Center) RecordOpen(promptTokens int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.avgPrompt.add(float64(promptTokens))
}

// RecordCompletion folds one finished request's latencies and its
// lifecycle phase breakdown into the per-instance histograms and the SLO
// completion window. tpotSec may be 0 for single-token generations.
func (c *Center) RecordCompletion(inst int, nowUs, ttftSec, tpotSec, e2eSec float64, ph trace.PhaseBreakdown) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ls := c.perInstLat[inst]
	if ls == nil {
		ls = &LatencySet{}
		c.perInstLat[inst] = ls
	}
	ls.TTFT.Add(ttftSec)
	if tpotSec > 0 {
		ls.TPOT.Add(tpotSec)
	}
	ls.E2E.Add(e2eSec)
	ls.Queue.Add(ph.QueueUs / 1e6)
	ls.Prefill.Add(ph.PrefillUs / 1e6)
	ls.Decode.Add(ph.DecodeUs / 1e6)
	if ph.XferUs > 0 {
		ls.Xfer.Add(ph.XferUs / 1e6)
	}
	if ph.StallUs > 0 {
		ls.Stall.Add(ph.StallUs / 1e6)
	}
	if ph.SwappedUs > 0 {
		ls.Swapped.Add(ph.SwappedUs / 1e6)
	}
	c.slo.recordCompletion(nowUs, ttftSec, tpotSec, e2eSec)
}

// Sample ingests one fleet observation: updates every ring, runs the
// saturation analyzer per instance and cluster-wide, evaluates SLO burn
// rates, and emits alerts for anything that fired. Call only when Due
// returned true (calling unconditionally just burns cycles).
func (c *Center) Sample(obs Observation) {
	c.mu.Lock()
	defer c.mu.Unlock()

	c.samples++
	c.lastObs = obs
	c.nextSampleUs.Store(math.Float64bits(obs.TimeUs + c.cfg.SampleIntervalUs))

	c.goodput.Add(obs.TimeUs, obs.GoodputTokensPerSec)

	avgPrompt := c.avgPrompt.v
	if !c.avgPrompt.set {
		avgPrompt = 0
	}

	var clusterCap, clusterDemand float64
	var alerts []Alert
	for _, io := range obs.PerInstance {
		s := c.inst[io.Inst]
		if s == nil {
			s = &instSeries{queueDepth: NewSeries(c.cfg.SeriesCapacity)}
			c.inst[io.Inst] = s
		}
		s.last = io
		s.queueDepth.Add(obs.TimeUs, float64(io.QueueDepth))

		demand := float64(io.ResidentTokens+io.SwappedTokens) + float64(io.QueueDepth)*avgPrompt
		clusterCap += io.TokenCapacity
		clusterDemand += demand
		sat := c.analyzer.Observe(obs.TimeUs, io.Inst, Headroom(io.TokenCapacity, demand))
		c.satByKey[io.Inst] = sat
		if sat.Advisory != "" {
			alerts = append(alerts, Alert{TimeUs: obs.TimeUs, Inst: io.Inst, Note: renderAdvisory(sat)})
		}
	}

	clusterSat := c.analyzer.Observe(obs.TimeUs, 0, Headroom(clusterCap, clusterDemand))
	c.satByKey[0] = clusterSat
	if clusterSat.Advisory != "" {
		alerts = append(alerts, Alert{TimeUs: obs.TimeUs, Inst: 0, Note: renderAdvisory(clusterSat)})
	}

	for _, note := range c.slo.evaluate(obs.TimeUs, c.goodput) {
		alerts = append(alerts, Alert{TimeUs: obs.TimeUs, Inst: 0, Note: note})
	}

	for _, a := range alerts {
		c.pushAlert(a)
		if c.cfg.Tracer != nil {
			c.cfg.Tracer.Emit(trace.Event{
				Kind:   trace.KindAlert,
				TimeUs: a.TimeUs,
				Inst:   a.Inst,
				Note:   a.Note,
			})
		}
	}
}

// pushAlert appends to the bounded recent-alerts ring. Caller holds mu.
func (c *Center) pushAlert(a Alert) {
	if len(c.alerts) < alertRingCap {
		c.alerts = append(c.alerts, a)
		return
	}
	c.alerts[c.alertsStart] = a
	c.alertsStart = (c.alertsStart + 1) % alertRingCap
}

// LatencyHists returns a merged cluster-wide copy of the latency
// histograms — merge-of-per-instance, which is exact because every Hist
// shares the bucket layout. The metrics endpoint exposes these, and the
// gateway's Retry-After hint reads its mean E2E from them.
func (c *Center) LatencyHists() LatencySet {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mergedLatencyLocked()
}

// mergedLatencyLocked merges the per-instance sets in ascending instance
// order: Hist.Merge accumulates a float64 sum, and float addition is not
// associative — a raw map walk would make the merged sums drift in the
// last bits between identical runs. Caller holds mu.
func (c *Center) mergedLatencyLocked() LatencySet {
	keys := make([]int, 0, len(c.perInstLat))
	for k := range c.perInstLat {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var m LatencySet
	for _, k := range keys {
		m.merge(c.perInstLat[k])
	}
	return m
}

// SLOStatuses re-evaluates the objectives at the last sample instant
// (no state transitions — pure read).
func (c *Center) SLOStatuses() []SLOStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sloStatusesLocked()
}

// sloStatusesLocked builds read-only statuses. Caller holds mu.
func (c *Center) sloStatusesLocked() []SLOStatus {
	var out []SLOStatus
	now := c.lastObs.TimeUs
	for _, st := range c.slo.states {
		fast, slow := c.slo.burns(st.spec, c.goodput, now)
		out = append(out, SLOStatus{
			Metric:            st.spec.Metric,
			Pctl:              st.spec.Pctl,
			TargetSec:         st.spec.TargetSec,
			FloorTokensPerSec: st.spec.FloorTokensPerSec,
			FastBurn:          fast,
			SlowBurn:          slow,
			Firing:            st.firing,
		})
	}
	return out
}
