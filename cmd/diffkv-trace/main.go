// Command diffkv-trace analyzes a diffkv trace offline: it reads the
// Perfetto trace-event file that diffkv-cluster -trace, the gateway and
// /debug/trace all write (raw events embedded), rebuilds every request's
// lifecycle span tree, and reports where the latency went — per-phase
// P50/P95/P99 across requests, the queueing onset (when admission wait
// starts climbing), and preemption-storm windows (bursts of
// preempt/swap_out events). It is the post-mortem counterpart of the
// gateway's live /debug endpoints: same span builder, same numbers.
//
// Usage:
//
//	diffkv-trace trace.json
//	diffkv-trace -json trace.json
//	diffkv-trace -req 17 trace.json          # one request's span tree
//
// The same file opens directly in ui.perfetto.dev.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"diffkv/internal/stats"
	"diffkv/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diffkv-trace: ")
	var (
		jsonOut     = flag.Bool("json", false, "emit the full report as JSON instead of text")
		reqID       = flag.Int("req", 0, "print one request's span tree (by sequence ID) and exit")
		stormWindow = flag.Float64("storm-window", 100, "preemption-storm detection window in simulated ms")
		stormMin    = flag.Int("storm-min", 4, "minimum preemptions within the window to flag a storm")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: diffkv-trace [flags] <trace.json>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	f, err := os.Open(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	events, err := trace.ReadEvents(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	if len(events) == 0 {
		log.Fatal("no events in trace")
	}

	trees := trace.BuildRequestSpans(events)
	if *reqID != 0 {
		rt := trace.FindRequestSpans(trees, *reqID)
		if rt == nil {
			log.Fatalf("no request %d in trace", *reqID)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rt)
		return
	}

	rep := analyze(events, trees, *stormWindow*1e3, *stormMin)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
		return
	}
	rep.print()
}

// phaseDist summarizes one phase's per-request latency distribution in
// milliseconds, over the requests that spent time in it.
type phaseDist struct {
	Phase   string  `json:"phase"`
	Count   int     `json:"count"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MeanMs  float64 `json:"mean_ms"`
	TotalMs float64 `json:"total_ms"`
}

// storm is one preemption-storm window: a burst of preempt/swap_out
// events dense enough to flag scheduler thrashing.
type storm struct {
	StartMs     float64 `json:"start_ms"`
	EndMs       float64 `json:"end_ms"`
	Preemptions int     `json:"preemptions"`
	Requests    int     `json:"requests"`
}

// downWindow is one reconstructed instance outage or degradation
// window from health events; EndMs is -1 when the instance never came
// back within the trace.
type downWindow struct {
	Inst    int     `json:"inst"`
	State   string  `json:"state"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// failReason tallies one terminal-failure reason.
type failReason struct {
	Reason string `json:"reason"`
	Count  int    `json:"count"`
}

// xferLink aggregates one prefill→decode shipping lane's KV traffic
// from kv_ship events.
type xferLink struct {
	From      int     `json:"from"`
	To        int     `json:"to"`
	Link      string  `json:"link"`
	Transfers int     `json:"transfers"`
	Bytes     int64   `json:"bytes"`
	WireMs    float64 `json:"wire_ms"`
}

// alertEntry is one telemetry alert (saturation advisory or SLO
// burn-rate transition) in trace order.
type alertEntry struct {
	TimeMs float64 `json:"time_ms"`
	Inst   int     `json:"inst,omitempty"`
	Note   string  `json:"note"`
}

// report is the full analysis output.
type report struct {
	Events    int `json:"events"`
	Requests  int `json:"requests"`
	Completed int `json:"completed"`
	Cancelled int `json:"cancelled"`
	// Failed counts requests terminally failed by fault injection
	// (crash re-dispatch budget exhausted).
	Failed   int `json:"failed,omitempty"`
	InFlight int `json:"in_flight"`
	// Phases has one distribution per lifecycle phase plus e2e.
	Phases []phaseDist `json:"phases"`
	// QueueingOnsetMs is the arrival time (ms) of the first request whose
	// queueing delay exceeded twice the median across the trace — the
	// point where the engine stopped keeping up with arrivals (-1 when
	// queueing never climbed).
	QueueingOnsetMs float64 `json:"queueing_onset_ms"`
	// Storms lists preemption-storm windows, densest first.
	Storms []storm `json:"storms,omitempty"`
	// SwapOutBytes / SwapInBytes total the PCIe traffic of swap events.
	SwapOutBytes int64 `json:"swap_out_bytes,omitempty"`
	SwapInBytes  int64 `json:"swap_in_bytes,omitempty"`
	// Disaggregation transfer traffic (empty without kv_ship events):
	// totals plus per-lane aggregates sorted by source then destination.
	Transfers      int        `json:"transfers,omitempty"`
	KVBytesShipped int64      `json:"kv_bytes_shipped,omitempty"`
	XferLinks      []xferLink `json:"xfer_links,omitempty"`
	// Fault-injection section (empty without health/retry/fail events).
	// Downtime lists per-instance down and degraded windows in time
	// order; CrashOrphans counts requests orphaned by crashes,
	// Redispatches their re-dispatches to survivors, SwapRecovered the
	// sequences the host tier carried through a crash, and FailReasons
	// the terminal failures by reason.
	Downtime      []downWindow `json:"downtime,omitempty"`
	CrashOrphans  int          `json:"crash_orphans,omitempty"`
	Redispatches  int          `json:"redispatches,omitempty"`
	SwapRecovered int          `json:"swap_recovered,omitempty"`
	FailReasons   []failReason `json:"fail_reasons,omitempty"`
	// Alerts is the telemetry alert timeline (scale advisories and SLO
	// burn-rate transitions) in emission order.
	Alerts []alertEntry `json:"alerts,omitempty"`
}

// analyzeFaults reconstructs the fault-injection section: health
// windows per instance, and the retry/recovery/failure event tallies.
func analyzeFaults(rep *report, events []trace.Event) {
	open := map[int]int{} // inst -> index of its unfinished window
	reasons := map[string]int{}
	for _, e := range events {
		switch e.Kind {
		case trace.KindHealth:
			if idx, ok := open[e.Inst]; ok && rep.Downtime[idx].State != e.Note {
				rep.Downtime[idx].EndMs = e.TimeUs / 1e3
				delete(open, e.Inst)
			}
			if _, ok := open[e.Inst]; !ok && e.Note != "healthy" {
				rep.Downtime = append(rep.Downtime, downWindow{
					Inst: e.Inst, State: e.Note, StartMs: e.TimeUs / 1e3, EndMs: -1,
				})
				open[e.Inst] = len(rep.Downtime) - 1
			}
		case trace.KindRetry:
			if e.Note == "crash" {
				rep.CrashOrphans++
			}
		case trace.KindDispatch:
			if e.Note == "redispatch" {
				rep.Redispatches++
			}
		case trace.KindRecover:
			rep.SwapRecovered++
		case trace.KindFail:
			reasons[e.Note]++
		case trace.KindAlert:
			rep.Alerts = append(rep.Alerts, alertEntry{
				TimeMs: e.TimeUs / 1e3, Inst: e.Inst, Note: e.Note,
			})
		}
	}
	for reason, n := range reasons {
		rep.FailReasons = append(rep.FailReasons, failReason{Reason: reason, Count: n})
	}
	sort.Slice(rep.FailReasons, func(i, j int) bool {
		a, b := rep.FailReasons[i], rep.FailReasons[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return a.Reason < b.Reason
	})
}

// analyze computes the report: phase distributions over completed
// requests, the queueing onset, and preemption storms over all events.
func analyze(events []trace.Event, trees []*trace.RequestSpans, windowUs float64, stormMin int) report {
	rep := report{Events: len(events), Requests: len(trees)}

	var queue, prefill, xfer, decode, stall, swapped, e2e []float64
	type arrival struct{ startUs, queueUs float64 }
	var arrivals []arrival
	for _, rt := range trees {
		switch {
		case rt.Completed:
			rep.Completed++
		case rt.Cancelled:
			rep.Cancelled++
		case rt.Failed:
			rep.Failed++
		default:
			rep.InFlight++
		}
		if !rt.Completed {
			continue // partial lifecycles would skew the distributions
		}
		queue = append(queue, rt.Phases.QueueUs)
		prefill = append(prefill, rt.Phases.PrefillUs)
		if rt.Phases.XferUs > 0 {
			xfer = append(xfer, rt.Phases.XferUs)
		}
		decode = append(decode, rt.Phases.DecodeUs)
		if rt.Phases.StallUs > 0 {
			stall = append(stall, rt.Phases.StallUs)
		}
		if rt.Phases.SwappedUs > 0 {
			swapped = append(swapped, rt.Phases.SwappedUs)
		}
		e2e = append(e2e, rt.E2EUs())
		arrivals = append(arrivals, arrival{rt.StartUs, rt.Phases.QueueUs})
	}
	var queueP50Us float64
	for _, d := range []struct {
		name string
		xs   []float64
	}{
		{"queue", queue}, {"prefill", prefill}, {"xfer:inst", xfer},
		{"decode", decode}, {"stall", stall}, {"swapped", swapped}, {"e2e", e2e},
	} {
		if len(d.xs) == 0 {
			continue
		}
		var sum float64
		for _, v := range d.xs {
			sum += v
		}
		lat := stats.SummarizeLatency(d.xs)
		if d.name == "queue" {
			queueP50Us = lat.P50
		}
		rep.Phases = append(rep.Phases, phaseDist{
			Phase:   d.name,
			Count:   len(d.xs),
			P50Ms:   lat.P50 / 1e3,
			P95Ms:   lat.P95 / 1e3,
			P99Ms:   lat.P99 / 1e3,
			MeanMs:  lat.Mean / 1e3,
			TotalMs: sum / 1e3,
		})
	}

	// queueing onset: the first arrival (in arrival order) whose queueing
	// delay exceeds 2x the median — sustained climb, not a one-off blip,
	// because every later arrival behind it queues at least as long
	rep.QueueingOnsetMs = -1
	if len(arrivals) >= 4 {
		sort.Slice(arrivals, func(i, j int) bool { return arrivals[i].startUs < arrivals[j].startUs })
		threshold := 2 * queueP50Us
		if threshold < 1 { // all-zero queueing: any wait at all is onset
			threshold = 1
		}
		for _, a := range arrivals {
			if a.queueUs > threshold {
				rep.QueueingOnsetMs = a.startUs / 1e3
				break
			}
		}
	}

	// preemption storms: slide a window over preempt/swap_out times and
	// greedily take the densest non-overlapping windows
	var preempts []trace.Event
	for _, e := range events {
		switch e.Kind {
		case trace.KindPreempt, trace.KindSwapOut:
			preempts = append(preempts, e)
		}
		switch e.Kind {
		case trace.KindSwapOut:
			rep.SwapOutBytes += e.Bytes
		case trace.KindSwapIn:
			rep.SwapInBytes += e.Bytes
		}
	}
	sort.SliceStable(preempts, func(i, j int) bool { return preempts[i].TimeUs < preempts[j].TimeUs })
	for i := 0; i < len(preempts); {
		j := i
		for j < len(preempts) && preempts[j].TimeUs <= preempts[i].TimeUs+windowUs {
			j++
		}
		if j-i >= stormMin {
			seqs := map[int]bool{} // a request keeps its seq across instances
			for _, e := range preempts[i:j] {
				seqs[e.Seq] = true
			}
			rep.Storms = append(rep.Storms, storm{
				StartMs:     preempts[i].TimeUs / 1e3,
				EndMs:       preempts[j-1].TimeUs / 1e3,
				Preemptions: j - i,
				Requests:    len(seqs),
			})
			i = j // non-overlapping: next storm starts after this one
			continue
		}
		i++
	}
	sort.SliceStable(rep.Storms, func(i, j int) bool {
		return rep.Storms[i].Preemptions > rep.Storms[j].Preemptions
	})
	analyzeTransfers(&rep, events)
	analyzeFaults(&rep, events)
	return rep
}

// analyzeTransfers aggregates disaggregation kv_ship events into
// per-lane transfer traffic. Each event carries the destination
// instance in Inst and the source plus pool roles in its note
// ("from=N link=prefill>decode").
func analyzeTransfers(rep *report, events []trace.Event) {
	type lane struct{ from, to int }
	agg := map[lane]*xferLink{}
	for _, e := range events {
		if e.Kind != trace.KindKVShip {
			continue
		}
		var from int
		var link string
		if n, err := fmt.Sscanf(e.Note, "from=%d link=%s", &from, &link); n != 2 || err != nil {
			continue // not a coordinator shipment note
		}
		rep.Transfers++
		rep.KVBytesShipped += e.Bytes
		k := lane{from, e.Inst}
		x := agg[k]
		if x == nil {
			x = &xferLink{From: from, To: e.Inst, Link: link}
			agg[k] = x
		}
		x.Transfers++
		x.Bytes += e.Bytes
		x.WireMs += e.DurUs / 1e3
	}
	for _, x := range agg {
		rep.XferLinks = append(rep.XferLinks, *x)
	}
	sort.Slice(rep.XferLinks, func(i, j int) bool {
		a, b := rep.XferLinks[i], rep.XferLinks[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
}

// print renders the report as text.
func (r report) print() {
	fmt.Printf("%d events, %d requests (%d completed, %d cancelled, %d failed, %d in flight)\n",
		r.Events, r.Requests, r.Completed, r.Cancelled, r.Failed, r.InFlight)
	if len(r.Phases) > 0 {
		fmt.Printf("\n%-8s %6s %12s %12s %12s %12s\n", "phase", "count", "p50 ms", "p95 ms", "p99 ms", "mean ms")
		for _, p := range r.Phases {
			fmt.Printf("%-8s %6d %12.3f %12.3f %12.3f %12.3f\n",
				p.Phase, p.Count, p.P50Ms, p.P95Ms, p.P99Ms, p.MeanMs)
		}
	}
	if r.QueueingOnsetMs >= 0 {
		fmt.Printf("\nqueueing onset: admission wait exceeded 2x median for arrivals from %.3f ms\n",
			r.QueueingOnsetMs)
	} else {
		fmt.Printf("\nqueueing onset: none (admission kept up with arrivals)\n")
	}
	if r.SwapOutBytes > 0 || r.SwapInBytes > 0 {
		fmt.Printf("swap traffic: %d bytes out, %d bytes in\n", r.SwapOutBytes, r.SwapInBytes)
	}
	if r.Transfers > 0 {
		fmt.Printf("\ntransfer traffic: %d KV shipments, %.1f MB over NIC\n",
			r.Transfers, float64(r.KVBytesShipped)/(1<<20))
		for _, x := range r.XferLinks {
			fmt.Printf("  %d->%d (%s): %d shipments, %.1f MB, %.1f ms wire\n",
				x.From, x.To, x.Link, x.Transfers, float64(x.Bytes)/(1<<20), x.WireMs)
		}
	}
	if len(r.Storms) == 0 {
		fmt.Println("preemption storms: none")
	} else {
		fmt.Printf("preemption storms (densest first):\n")
		for _, s := range r.Storms {
			fmt.Printf("  %.3f–%.3f ms: %d preemptions across %d requests\n",
				s.StartMs, s.EndMs, s.Preemptions, s.Requests)
		}
	}
	if len(r.Alerts) > 0 {
		fmt.Printf("\nalert timeline:\n")
		for _, a := range r.Alerts {
			if a.Inst > 0 {
				fmt.Printf("  %12.3f ms  inst %d  %s\n", a.TimeMs, a.Inst, a.Note)
			} else {
				fmt.Printf("  %12.3f ms  cluster %s\n", a.TimeMs, a.Note)
			}
		}
	}
	if len(r.Downtime) == 0 && r.CrashOrphans == 0 && len(r.FailReasons) == 0 {
		return
	}
	fmt.Printf("\nfault injection:\n")
	for _, w := range r.Downtime {
		if w.EndMs < 0 {
			fmt.Printf("  instance %d %s from %.3f ms (never recovered in trace)\n",
				w.Inst, w.State, w.StartMs)
			continue
		}
		fmt.Printf("  instance %d %s %.3f–%.3f ms (%.3f ms)\n",
			w.Inst, w.State, w.StartMs, w.EndMs, w.EndMs-w.StartMs)
	}
	fmt.Printf("  %d crash orphans, %d re-dispatches, %d swap-recovered\n",
		r.CrashOrphans, r.Redispatches, r.SwapRecovered)
	for _, fr := range r.FailReasons {
		fmt.Printf("  failed %d: %s\n", fr.Count, fr.Reason)
	}
}
