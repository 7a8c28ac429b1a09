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

// InstanceObservation is one instance's occupancy at a sample tick.
// serving.ObservationFromStats builds these from DriverStats so
// telemetry never imports the serving package (no cycle).
type InstanceObservation struct {
	Inst           int
	QueueDepth     int
	Running        int
	Swapped        int
	FreeKVPages    int64
	UsedKVPages    int64
	ResidentTokens int64
	SwappedTokens  int64
	// MemoryTokens / ComputeTokens are the two capacity axes; capacity
	// is min of the non-zero ones (0 = unknown/unbounded axis).
	MemoryTokens  float64
	ComputeTokens float64
	// HostBytes is the KV footprint currently parked on the host tier.
	HostBytes int64
	Health    string
	// Cumulative counters for {inst}-labelled exposition.
	Preemptions  int64
	SwapOutBytes int64
	SwapInBytes  int64
}

// Observation is a whole-fleet sample at one sim instant.
type Observation struct {
	TimeUs                 float64
	ThroughputTokensPerSec float64
	GoodputTokensPerSec    float64
	InstancesUp            int
	Completed              int64
	Rejected               int64
	PerInstance            []InstanceObservation
}

// Capacity resolves the instance's token capacity:
// min(memory, compute) over the known axes.
func (o InstanceObservation) Capacity() float64 {
	switch {
	case o.MemoryTokens > 0 && o.ComputeTokens > 0:
		return math.Min(o.MemoryTokens, o.ComputeTokens)
	case o.MemoryTokens > 0:
		return o.MemoryTokens
	default:
		return o.ComputeTokens
	}
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

// instSeries is the ring set kept per instance (and once cluster-wide).
type instSeries struct {
	queueDepth    *Series
	running       *Series
	usedKVPages   *Series
	hostBytes     *Series
	swappedTokens *Series
	tokensPerSec  *Series
	last          InstanceObservation
}

// latencySet groups the three latency histograms for one scope.
type latencySet struct {
	ttft, tpot, e2e Hist
}

func (l *latencySet) merge(o *latencySet) {
	l.ttft.Merge(&o.ttft)
	l.tpot.Merge(&o.tpot)
	l.e2e.Merge(&o.e2e)
}

// Center is the telemetry aggregation point. One Center serves one run;
// all methods are safe for concurrent use (the gateway snapshots while
// the driver samples).
type Center struct {
	mu  sync.Mutex
	cfg Config

	nextSampleUs float64
	lastObs      Observation

	inst    map[int]*instSeries
	goodput *Series
	tput    *Series

	analyzer *Analyzer
	slo      *sloEval

	perInstLat map[int]*latencySet

	avgPrompt ewma
	avgGen    ewma

	satByKey map[int]SatSample

	alerts      []Alert
	alertsStart int
	samples     int64
	completions int64
	opens       int64
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
		tput:       NewSeries(cfg.SeriesCapacity),
		analyzer:   NewAnalyzer(cfg.Saturation, cfg.SeriesCapacity),
		slo:        newSLOEval(cfg.SLOs),
		perInstLat: map[int]*latencySet{},
		satByKey:   map[int]SatSample{},
	}
}

// Due reports whether a sample is owed at sim time nowUs. Drivers call
// this between steps and, when true, build an Observation and Sample it
// — keeping the expensive stats walk off the common path.
func (c *Center) Due(nowUs float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return nowUs >= c.nextSampleUs
}

// RecordOpen notes an accepted request's prompt length; the EWMA feeds
// the queued-demand term of the saturation analyzer.
func (c *Center) RecordOpen(promptTokens int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opens++
	c.avgPrompt.add(float64(promptTokens))
}

// RecordCompletion folds one finished request's latencies into the
// per-instance histograms and the SLO completion window. tpotSec may be
// 0 for single-token generations.
func (c *Center) RecordCompletion(inst int, nowUs, ttftSec, tpotSec, e2eSec float64, genTokens int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.completions++
	c.avgGen.add(float64(genTokens))
	ls := c.perInstLat[inst]
	if ls == nil {
		ls = &latencySet{}
		c.perInstLat[inst] = ls
	}
	ls.ttft.Add(ttftSec)
	if tpotSec > 0 {
		ls.tpot.Add(tpotSec)
	}
	ls.e2e.Add(e2eSec)
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
	c.nextSampleUs = obs.TimeUs + c.cfg.SampleIntervalUs

	c.goodput.Add(obs.TimeUs, obs.GoodputTokensPerSec)
	c.tput.Add(obs.TimeUs, obs.ThroughputTokensPerSec)

	avgPrompt := c.avgPrompt.v
	if !c.avgPrompt.set {
		avgPrompt = 0
	}

	var clusterCap, clusterDemand float64
	var alerts []Alert
	for _, io := range obs.PerInstance {
		s := c.inst[io.Inst]
		if s == nil {
			s = &instSeries{
				queueDepth:    NewSeries(c.cfg.SeriesCapacity),
				running:       NewSeries(c.cfg.SeriesCapacity),
				usedKVPages:   NewSeries(c.cfg.SeriesCapacity),
				hostBytes:     NewSeries(c.cfg.SeriesCapacity),
				swappedTokens: NewSeries(c.cfg.SeriesCapacity),
				tokensPerSec:  NewSeries(c.cfg.SeriesCapacity),
			}
			c.inst[io.Inst] = s
		}
		s.last = io
		s.queueDepth.Add(obs.TimeUs, float64(io.QueueDepth))
		s.running.Add(obs.TimeUs, float64(io.Running))
		s.usedKVPages.Add(obs.TimeUs, float64(io.UsedKVPages))
		s.hostBytes.Add(obs.TimeUs, float64(io.HostBytes))
		s.swappedTokens.Add(obs.TimeUs, float64(io.SwappedTokens))
		// attribute fleet throughput evenly when per-instance rate is
		// unavailable; the dashboard labels it as a fleet share
		perShare := 0.0
		if n := len(obs.PerInstance); n > 0 {
			perShare = obs.ThroughputTokensPerSec / float64(n)
		}
		s.tokensPerSec.Add(obs.TimeUs, perShare)

		capTok := io.Capacity()
		demand := float64(io.ResidentTokens+io.SwappedTokens) + float64(io.QueueDepth)*avgPrompt
		clusterCap += capTok
		clusterDemand += demand
		sat := c.analyzer.Observe(obs.TimeUs, io.Inst, Headroom(capTok, demand))
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

	_, fired := c.slo.evaluate(obs.TimeUs, c.goodput)
	for _, note := range fired {
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

// LatencyHists returns merged cluster-wide copies of the TTFT/TPOT/E2E
// histograms — merge-of-per-instance, which is exact because every Hist
// shares the bucket layout. The metrics endpoint exposes these.
func (c *Center) LatencyHists() (ttft, tpot, e2e Hist) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Sorted instance order keeps the merged float sums bit-identical
	// between runs (same reason as Center.Snapshot's merge).
	var m latencySet
	for _, k := range sortedLatKeys(c.perInstLat) {
		m.merge(c.perInstLat[k])
	}
	return m.ttft, m.tpot, m.e2e
}

// sortedLatKeys returns the per-instance latency map's keys in
// ascending order, pinning every merge walk to one order.
func sortedLatKeys(m map[int]*latencySet) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// SatByInst returns the latest saturation verdict per key (0 =
// cluster-wide) for gauge exposition.
func (c *Center) SatByInst() map[int]SatSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]SatSample, len(c.satByKey))
	//diffkv:allow maprange -- map-to-map copy with distinct keys: identical result whatever the walk order
	for k, v := range c.satByKey {
		out[k] = v
	}
	return out
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
		var fast, slow float64
		if st.spec.Metric == "goodput" {
			fast = goodputBurn(st.spec, c.goodput, now, st.spec.FastWindowS)
			slow = goodputBurn(st.spec, c.goodput, now, st.spec.SlowWindowS)
		} else {
			fast = c.slo.latencyBurn(st.spec, now, st.spec.FastWindowS)
			slow = c.slo.latencyBurn(st.spec, now, st.spec.SlowWindowS)
		}
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
