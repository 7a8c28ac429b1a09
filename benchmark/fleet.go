package main

import (
	"time"

	"diffkv"
	"diffkv/internal/cluster"
	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
)

// fleetWorkload is cluster_fleet: one cluster.Cluster.Run over a batch of
// Poisson arrivals, traits-mode engines behind the prefix-affinity router
// with the telemetry center sampling inside the event loop.
type fleetWorkload struct{}

const fleetSpec = "cluster_fleet"

func (fleetWorkload) prepare(seed uint64, quarter bool) (runFunc, error) {
	sc, err := loadSpec(fleetSpec, seed, quarter)
	if err != nil {
		return nil, err
	}
	st, err := sc.Build()
	if err != nil {
		return nil, err
	}
	reqs := st.Requests()
	return func(rec *recorder) (*repResult, error) { return driveFleet(st, reqs, rec) }, nil
}

func driveFleet(st *diffkv.Stack, reqs []diffkv.Request, rec *recorder) (*repResult, error) {
	res := &repResult{attempted: len(reqs), values: make(map[string]float64)}
	id := rec.begin("cluster.run", rootSpan, 0)
	m, err := st.Cluster.Run(reqs)
	runNs := rec.end(id)
	if err != nil {
		return nil, err
	}
	// Run already finalized m; a second finalization after the run is the
	// finishMetrics cost (latency sorts over every completion) on its own
	id = rec.begin("cluster.metrics", rootSpan, 0)
	again := st.Cluster.Metrics()
	metricsNs := rec.end(id)

	if m.Submitted != m.Dispatched+m.Rejected {
		res.failf("submitted %d != dispatched %d + rejected %d", m.Submitted, m.Dispatched, m.Rejected)
	}
	if m.Dispatched != m.Completed+m.Cancelled+m.Failed {
		res.failf("dispatched %d != completed %d + cancelled %d + failed %d", m.Dispatched, m.Completed, m.Cancelled, m.Failed)
	}
	if m.Completed != len(reqs) {
		res.failf("completed %d of %d submitted", m.Completed, len(reqs))
	}
	ds := st.Cluster.Stats()
	if ds.UsedKVPages+ds.FreeKVPages != 0 {
		res.failf("traits-mode fleet reports %d KV pages: a page manager exists where none should", ds.UsedKVPages+ds.FreeKVPages)
	}

	d := newDigest()
	d.add("%+v|%+v", m, again.TTFT)
	res.digest = d.sum()

	var steps int
	for _, e := range st.Cluster.Engines() {
		r := e.Result()
		steps += r.PromptSteps + r.GenSteps
	}
	events := m.Dispatched + steps

	v := res.values
	v["sim_tok_per_s"] = m.ThroughputTokensPerSec
	v["sim_ttft_p99_ms"] = m.TTFT.P99 * 1e3
	v["sim_tpot_p50_ms"] = m.TPOT.P50 * 1e3
	v["sim_goodput_frac"] = m.GoodputFrac * float64(m.Dispatched) / float64(m.Submitted)
	v["cluster.events"] = float64(events)
	v["cluster.prefix_hit_frac"] = m.PrefixCacheHitFrac
	v["cluster.load_imbalance_cv"] = m.LoadImbalanceCV
	v["cluster.rejected"] = float64(m.Rejected)
	v["serving.preemptions"] = float64(m.Preemptions)
	v["telemetry.samples"] = float64(st.Telemetry.Snapshot().Samples)
	if rec != nil {
		v["cluster.run_us_per_event"] = float64(runNs) / 1e3 / float64(events)
		v["cluster.finish_metrics_ms"] = float64(metricsNs) / 1e6
	}
	return res, nil
}

// probes calls the router, its block index and the telemetry center
// directly, over the workload's own requests and fleet width.
func (fleetWorkload) probes(seed uint64, _ *recorder, out map[string]float64) error {
	sc, err := loadSpec(fleetSpec, seed, false)
	if err != nil {
		return err
	}
	st, err := sc.Build()
	if err != nil {
		return err
	}
	probeWorkload(st, out)
	reqs := st.Requests()
	n := min(len(reqs), 50000)
	reqs = reqs[:n]
	c := sc.Cluster

	snaps := make([]cluster.Snapshot, c.Instances)
	for i := range snaps {
		snaps[i] = cluster.Snapshot{ID: i, QueueDepth: i % 4, Running: 8 + i%5, ResidentTokens: 4096 * (1 + i%7)}
	}
	// the router as the cluster drives it: pick, then observe the pick;
	// the index reaches capacity within the first few thousand requests
	policy := cluster.NewPrefixAffinity(c.BlockTokens, c.AffinityQueueBound, c.IndexCapacity)
	obs := policy.(interface {
		Observe(req diffkv.Request, inst int, nowUs float64)
	})
	t0 := time.Now()
	for _, r := range reqs {
		obs.Observe(r, policy.Pick(r, snaps), r.ArrivalUs)
	}
	out["cluster.route_pick_us"] = float64(time.Since(t0).Microseconds()) / float64(n)

	// the index alone, at capacity: Add of a shared prefix's blocks (with
	// the eviction it forces), then Matches over whole prompts
	index := cluster.NewKVIndex(c.IndexCapacity)
	hashes := make([][]uint64, n)
	for i, r := range reqs {
		hashes[i] = r.BlockHashes(c.BlockTokens)
	}
	t0 = time.Now()
	for i, r := range reqs {
		index.Add(hashes[i][:min(len(hashes[i]), 12)], i%c.Instances, r.ArrivalUs)
	}
	out["cluster.kvindex_add_us"] = float64(time.Since(t0).Microseconds()) / float64(n)
	out["cluster.kvindex_len"] = float64(index.Len())
	var sink int
	t0 = time.Now()
	for i := range reqs {
		sink += len(index.Matches(hashes[i]))
	}
	out["cluster.kvindex_matches_us"] = float64(time.Since(t0).Microseconds()) / float64(n)
	_ = sink

	// telemetry: Sample over a fleet-wide observation with one SLO, and the
	// not-due gate every event pays
	ds := serving.DriverStats{Instances: c.Instances, InstancesUp: c.Instances}
	for i := 0; i < c.Instances; i++ {
		ds.PerInstance = append(ds.PerInstance, serving.InstanceStats{
			Inst: i + 1, QueueDepth: i % 4, Running: 8 + i%5, Health: "healthy",
			ResidentTokens: 4096 * (1 + i%7), TokenCapacity: 200000,
		})
	}
	observation := serving.ObservationFromStats(ds)
	center := telemetry.New(telemetry.Config{
		SampleIntervalUs: 1e6,
		SLOs:             []telemetry.SLOSpec{{Metric: "ttft", Pctl: 95, TargetSec: 2}},
	})
	const samples = 2000
	t0 = time.Now()
	for i := 0; i < samples; i++ {
		observation.TimeUs = float64(i) * 1e6
		center.Sample(observation)
	}
	out["telemetry.sample_us"] = float64(time.Since(t0).Microseconds()) / samples
	const dues = 1_000_000
	var due int
	t0 = time.Now()
	for i := 0; i < dues; i++ {
		if center.Due(0) {
			due++
		}
	}
	out["telemetry.due_ns"] = float64(time.Since(t0).Nanoseconds()) / dues
	_ = due
	return nil
}
