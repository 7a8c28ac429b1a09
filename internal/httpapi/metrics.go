package httpapi

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"diffkv/internal/serving"
	"diffkv/internal/telemetry"
)

// handleMetrics exports the loop and driver counters in Prometheus text
// exposition format: goodput/throughput as gauges and the lifetime
// request/preemption/offload counters, from one locked Loop.Metrics
// snapshot, plus — when the gateway has a telemetry center — the
// TTFT/TPOT/E2E and per-phase latency histograms and the saturation and
// SLO gauges.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Loop.Metrics first: it waits out a step in flight, so a completion
	// any client has already seen is in the center before it is read
	m := g.cfg.Loop.Metrics()
	var b strings.Builder

	metric := func(name, help, typ string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		fmt.Fprintf(&b, "%s %g\n", name, v)
	}
	gauge := func(name, help string, v float64) { metric(name, help, "gauge", v) }
	counter := func(name, help string, v float64) { metric(name, help, "counter", v) }
	// instMetric writes one family as an unlabeled fleet total plus one
	// {inst="N"} series per serving instance (HELP/TYPE once).
	instMetric := func(name, help, typ string, total float64, per func(serving.InstanceStats) float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		fmt.Fprintf(&b, "%s %g\n", name, total)
		for _, is := range m.Driver.PerInstance {
			fmt.Fprintf(&b, "%s{inst=\"%d\"} %g\n", name, is.Inst, per(is))
		}
	}
	instGauge := func(name, help string, total float64, per func(serving.InstanceStats) float64) {
		instMetric(name, help, "gauge", total, per)
	}
	instCounter := func(name, help string, total float64, per func(serving.InstanceStats) float64) {
		instMetric(name, help, "counter", total, per)
	}

	d := m.Driver
	gauge("diffkv_up", "1 while the serving loop accepts work, 0 once draining or stopped.", boolGauge(!m.Draining && !m.Stopped))
	gauge("diffkv_uptime_seconds", "Wall time since the loop started.", m.UptimeSeconds)
	gauge("diffkv_sim_clock_seconds", "Simulated clock the serving engines have reached.", m.SimSeconds)
	counter("diffkv_loop_steps_total", "Scheduler iterations executed by the loop.", float64(m.Steps))
	counter("diffkv_sessions_opened_total", "Sessions accepted through the loop.", float64(m.Opened))
	counter("diffkv_requests_completed_total", "Requests completed.", float64(d.Completed))
	counter("diffkv_requests_cancelled_total", "Sessions cancelled before completion (disconnects included).", float64(d.Cancelled))
	counter("diffkv_requests_rejected_total", "Requests shed by cluster admission control.", float64(d.Rejected))
	instCounter("diffkv_preemptions_total", "Preemption events, recompute and swap recoveries (unlabeled: fleet total; inst label: per instance).",
		float64(d.Preemptions), func(is serving.InstanceStats) float64 { return float64(is.Preemptions) })
	gauge("diffkv_instances", "Serving engine instances behind this gateway.", float64(d.Instances))
	gauge("diffkv_sessions_open", "Sessions currently in flight.", float64(d.OpenSessions))
	instGauge("diffkv_queue_depth", "Requests awaiting admission (unlabeled: fleet total; inst label: per instance).",
		float64(d.QueueDepth), func(is serving.InstanceStats) float64 { return float64(is.QueueDepth) })
	instGauge("diffkv_running_requests", "Admitted, in-flight requests (unlabeled: fleet total; inst label: per instance).",
		float64(d.Running), func(is serving.InstanceStats) float64 { return float64(is.Running) })
	instGauge("diffkv_swapped_requests", "Sequences swapped out to the host tier (unlabeled: fleet total; inst label: per instance).",
		float64(d.Swapped), func(is serving.InstanceStats) float64 { return float64(is.Swapped) })
	instGauge("diffkv_kv_pages_free", "Free KV cache pages in manager mode (unlabeled: fleet total; inst label: per instance).",
		float64(d.FreeKVPages), func(is serving.InstanceStats) float64 { return float64(is.FreeKVPages) })
	instGauge("diffkv_kv_pages_used", "Used KV cache pages in manager mode (unlabeled: fleet total; inst label: per instance).",
		float64(d.UsedKVPages), func(is serving.InstanceStats) float64 { return float64(is.UsedKVPages) })
	instGauge("diffkv_instance_up", "1 while the instance serves (unlabeled: instances up; inst label: per instance, 0 when crashed).",
		float64(d.InstancesUp), func(is serving.InstanceStats) float64 { return boolGauge(is.Health != "down") })
	counter("diffkv_requests_failed_total", "Requests terminally failed by fault injection (crash retry budget exhausted).", float64(d.Failed))
	counter("diffkv_crashes_total", "Instance crash events injected.", float64(d.Crashes))
	counter("diffkv_restarts_total", "Instance restart events after injected crashes.", float64(d.Restarts))
	counter("diffkv_redispatches_total", "Crash orphans re-dispatched to surviving instances.", float64(d.Redispatches))
	counter("diffkv_swap_recovered_total", "Sequences the host tier carried through a crash (resumed, not recomputed).", float64(d.SwapRecovered))
	counter("diffkv_lost_kv_bytes_total", "GPU KV cache bytes destroyed by instance crashes.", float64(d.LostKVBytes))
	counter("diffkv_brownout_admissions_total", "Admissions forced to the all-low compression tier under queue pressure.", float64(d.BrownoutAdmits))
	instCounter("diffkv_swap_out_bytes_total", "Bytes swapped out to the host tier (unlabeled: fleet total; inst label: per instance).",
		float64(d.SwapOutBytes), func(is serving.InstanceStats) float64 { return float64(is.SwapOutBytes) })
	instCounter("diffkv_swap_in_bytes_total", "Bytes swapped back in from the host tier (unlabeled: fleet total; inst label: per instance).",
		float64(d.SwapInBytes), func(is serving.InstanceStats) float64 { return float64(is.SwapInBytes) })
	counter("diffkv_host_prefix_hits_total", "Prefix-cache entries served back from host memory.", float64(d.HostPrefixHits))
	if disaggRun(d) {
		writeDisaggMetrics(&b, d)
	}
	gauge("diffkv_throughput_tokens_per_sec", "Generated tokens per simulated second.", d.ThroughputTokensPerSec)
	gauge("diffkv_goodput_tokens_per_sec", "Completed requests' tokens per simulated second.", d.GoodputTokensPerSec)
	if g.cfg.Trace != nil {
		gauge("diffkv_trace_events_retained", "Trace events currently held in the collector ring.", float64(g.cfg.Trace.Retained()))
		counter("diffkv_trace_dropped_total", "Trace events evicted by the collector ring.", float64(g.cfg.Trace.Dropped()))
	}
	if tc := g.cfg.Telemetry; tc != nil {
		g.writeTelemetryMetrics(&b, tc)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// disaggRun reports whether the driver serves a disaggregated cluster
// (pool roles assigned), which gates the disagg metric families.
func disaggRun(d serving.DriverStats) bool {
	for _, is := range d.PerInstance {
		if is.Role != "" {
			return true
		}
	}
	return false
}

// writeDisaggMetrics appends the disaggregation families: the KV
// shipment counters with an unlabeled fleet total plus one
// {from,to} series per prefill→decode lane, and per-pool load gauges
// aggregated over instance roles.
func writeDisaggMetrics(b *strings.Builder, d serving.DriverStats) {
	fmt.Fprintf(b, "# HELP diffkv_kv_transfers_total Prefill-to-decode KV shipments over the NIC (unlabeled: fleet total; from/to labels: per lane).\n# TYPE diffkv_kv_transfers_total counter\n")
	fmt.Fprintf(b, "diffkv_kv_transfers_total %d\n", d.KVTransfers)
	for _, l := range d.KVShipLinks {
		fmt.Fprintf(b, "diffkv_kv_transfers_total{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, l.Transfers)
	}
	fmt.Fprintf(b, "# HELP diffkv_kv_bytes_shipped_total Compressed KV bytes shipped prefill-to-decode over the NIC (unlabeled: fleet total; from/to labels: per lane).\n# TYPE diffkv_kv_bytes_shipped_total counter\n")
	fmt.Fprintf(b, "diffkv_kv_bytes_shipped_total %d\n", d.KVBytesShipped)
	for _, l := range d.KVShipLinks {
		fmt.Fprintf(b, "diffkv_kv_bytes_shipped_total{from=\"%d\",to=\"%d\"} %d\n", l.From, l.To, l.Bytes)
	}

	poolGauge := func(name, help string, per func(serving.InstanceStats) float64) {
		byPool := map[string]float64{}
		for _, is := range d.PerInstance {
			if is.Role != "" {
				byPool[is.Role] += per(is)
			}
		}
		pools := make([]string, 0, len(byPool))
		for p := range byPool {
			pools = append(pools, p)
		}
		sort.Strings(pools)
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, p := range pools {
			fmt.Fprintf(b, "%s{pool=%q} %g\n", name, p, byPool[p])
		}
	}
	poolGauge("diffkv_pool_queue_depth", "Requests awaiting admission, summed per disaggregation pool.",
		func(is serving.InstanceStats) float64 { return float64(is.QueueDepth) })
	poolGauge("diffkv_pool_running_requests", "Admitted, in-flight requests, summed per disaggregation pool.",
		func(is serving.InstanceStats) float64 { return float64(is.Running) })
	poolGauge("diffkv_pool_instances", "Serving instances per disaggregation pool.",
		func(serving.InstanceStats) float64 { return 1 })
}

// histStride thins the 70-bucket telemetry layout to every 5th bound
// (~3.16x spacing, 14 exposition buckets) — plenty for recording rules
// without inflating every scrape.
const histStride = 5

// writeTelemetryMetrics appends the telemetry-backed series: cumulative
// latency histograms — request-level TTFT/TPOT/E2E and one per lifecycle
// phase, whose six sums add up to the E2E sum — the per-instance
// saturation headroom gauge, and the SLO burn-rate gauges.
func (g *Gateway) writeTelemetryMetrics(b *strings.Builder, tc *telemetry.Center) {
	hist := func(name, help string, h *telemetry.Hist) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
		for _, bc := range h.CumulativeBuckets(histStride) {
			fmt.Fprintf(b, "%s_bucket{le=\"%g\"} %d\n", name, bc.UpperSec, bc.Cumulative)
		}
		fmt.Fprintf(b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(b, "%s_sum %g\n", name, h.Sum())
		fmt.Fprintf(b, "%s_count %d\n", name, h.Count())
	}
	l := tc.LatencyHists()
	hist("diffkv_ttft_seconds", "Time to first token (simulated seconds).", &l.TTFT)
	hist("diffkv_tpot_seconds", "Time per output token after the first, over multi-token completions (simulated seconds).", &l.TPOT)
	hist("diffkv_e2e_seconds", "Arrival-to-completion latency (simulated seconds).", &l.E2E)
	hist("diffkv_phase_queue_seconds", "Per-completion time spent queued before admission (simulated seconds).", &l.Queue)
	hist("diffkv_phase_prefill_seconds", "Per-completion time spent in the prompt phase (simulated seconds).", &l.Prefill)
	hist("diffkv_phase_xfer_seconds", "Per-completion time spent shipping KV prefill-to-decode, over shipped completions only (simulated seconds).", &l.Xfer)
	hist("diffkv_phase_decode_seconds", "Per-completion time spent generating tokens (simulated seconds).", &l.Decode)
	hist("diffkv_phase_stall_seconds", "Per-completion time lost to recompute preemptions, over preempted completions only (simulated seconds).", &l.Stall)
	hist("diffkv_phase_swapped_seconds", "Per-completion time spent swapped out to the host tier, over swapped completions only (simulated seconds).", &l.Swapped)

	snap := tc.Snapshot()
	fmt.Fprintf(b, "# HELP diffkv_saturation_headroom Saturation headroom fraction, (capacity-demand)/capacity (unlabeled: cluster-wide; inst label: per instance).\n# TYPE diffkv_saturation_headroom gauge\n")
	fmt.Fprintf(b, "diffkv_saturation_headroom %g\n", snap.Cluster.Headroom)
	for _, row := range snap.Instances {
		fmt.Fprintf(b, "diffkv_saturation_headroom{inst=\"%d\"} %g\n", row.Inst, row.Headroom)
	}

	slos := tc.SLOStatuses()
	if len(slos) > 0 {
		fmt.Fprintf(b, "# HELP diffkv_slo_burn_rate SLO error-budget burn rate per objective and evaluation window (1.0 = sustainable).\n# TYPE diffkv_slo_burn_rate gauge\n")
		for _, s := range slos {
			fmt.Fprintf(b, "diffkv_slo_burn_rate{metric=%q,window=\"fast\"} %g\n", s.Metric, s.FastBurn)
			fmt.Fprintf(b, "diffkv_slo_burn_rate{metric=%q,window=\"slow\"} %g\n", s.Metric, s.SlowBurn)
		}
		fmt.Fprintf(b, "# HELP diffkv_slo_firing 1 while the objective's multi-window burn-rate alert is firing.\n# TYPE diffkv_slo_firing gauge\n")
		for _, s := range slos {
			fmt.Fprintf(b, "diffkv_slo_firing{metric=%q} %g\n", s.Metric, boolGauge(s.Firing))
		}
	}
}
