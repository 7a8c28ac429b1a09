// Command diffkv-top is a live terminal dashboard over the telemetry
// center: per-instance occupancy and saturation headroom with
// sparkline trends, merged latency percentiles, SLO burn rates and the
// recent alert timeline. It polls a running gateway's /debug/telemetry
// route, or replays a recorded trace file offline — same renderer,
// same layout, so what you watch live is what you read post-mortem.
//
// Usage:
//
//	diffkv-top                              # poll http://127.0.0.1:8080
//	diffkv-top -url http://host:8080 -interval 500ms
//	diffkv-top -once                        # one frame, no screen control
//	diffkv-top -trace trace.json            # offline replay (implies -once)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"diffkv/internal/telemetry"
	"diffkv/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diffkv-top: ")
	var (
		url       = flag.String("url", "http://127.0.0.1:8080", "gateway base URL (live mode)")
		interval  = flag.Duration("interval", time.Second, "refresh cadence (live mode)")
		once      = flag.Bool("once", false, "render one frame and exit (no screen control)")
		tracePath = flag.String("trace", "", "replay this trace file offline instead of polling a gateway")
	)
	flag.Parse()

	if *tracePath != "" {
		f, err := os.Open(*tracePath)
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
		render(os.Stdout, telemetry.Replay(events))
		return
	}

	fetch := func() (telemetry.Snapshot, error) {
		var snap telemetry.Snapshot
		resp, err := http.Get(*url + "/debug/telemetry")
		if err != nil {
			return snap, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return snap, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		return snap, err
	}

	if *once {
		snap, err := fetch()
		if err != nil {
			log.Fatal(err)
		}
		render(os.Stdout, snap)
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	var buf strings.Builder
	for {
		snap, err := fetch()
		buf.Reset()
		buf.WriteString("\x1b[H\x1b[2J") // home + clear: one write, no flicker
		if err != nil {
			fmt.Fprintf(&buf, "diffkv-top: %v (retrying every %s)\n", err, *interval)
		} else {
			render(&buf, snap)
			fmt.Fprintf(&buf, "\n%s  refresh %s  ^C to quit\n", *url, *interval)
		}
		os.Stdout.WriteString(buf.String())
		select {
		case <-ticker.C:
		case <-sig:
			fmt.Println()
			return
		}
	}
}

// sparkBlocks maps a normalized value to a glyph; space keeps all-zero
// tails visually flat rather than a row of minimum-height bars.
var sparkBlocks = []rune(" ▁▂▃▄▅▆▇█")

// spark renders values (oldest first) as a unicode sparkline scaled to
// the tail's own maximum.
func spark(values []float64) string {
	if len(values) == 0 {
		return ""
	}
	max := 0.0
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range values {
		i := 0
		if max > 0 && v > 0 {
			i = 1 + int(v/max*float64(len(sparkBlocks)-2))
			if i >= len(sparkBlocks) {
				i = len(sparkBlocks) - 1
			}
		}
		b.WriteRune(sparkBlocks[i])
	}
	return b.String()
}

// humanBytes renders a byte count with a binary-prefix unit.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// render draws one full dashboard frame.
func render(w io.Writer, s telemetry.Snapshot) {
	mode := "live"
	if s.Offline {
		mode = "offline replay"
	}
	c := s.Cluster
	fmt.Fprintf(w, "diffkv-top — %s | sim %.1fs | %d samples | %d up | %d completed, %d rejected\n",
		mode, s.TimeUs/1e6, s.Samples, c.InstancesUp, c.Completed, c.Rejected)
	fmt.Fprintf(w, "throughput %8.1f tok/s   goodput %8.1f tok/s   %s\n",
		c.ThroughputTokensPerSec, c.GoodputTokensPerSec, spark(c.GoodputSpark))
	if !s.Offline {
		fmt.Fprintf(w, "headroom   %7.1f%%  (capacity %.0f tok, demand %.0f tok, slope %+.4f/s",
			c.Headroom*100, c.CapacityTokens, c.DemandTokens, c.HeadroomSlopePerSec)
		if c.TimeToSaturationSec > 0 {
			fmt.Fprintf(w, ", saturates in %.1fs", c.TimeToSaturationSec)
		}
		fmt.Fprintf(w, ")")
		if c.Advisory != "" {
			fmt.Fprintf(w, "  [%s]", strings.ToUpper(c.Advisory))
		}
		fmt.Fprintf(w, "   %s\n", spark(c.HeadroomSpark))
	}

	if len(s.Instances) > 0 {
		fmt.Fprintf(w, "\n%4s %-9s %5s %4s %5s %10s %9s %8s %8s %6s %-10s %s\n",
			"inst", "health", "queue", "run", "swap", "kv pages", "resident", "swapped", "host", "headrm", "advisory", "queue trend")
		for _, in := range s.Instances {
			health := in.Health
			if health == "" {
				health = "healthy"
			}
			headrm := "-"
			if !s.Offline {
				headrm = fmt.Sprintf("%5.1f%%", in.Headroom*100)
			}
			fmt.Fprintf(w, "%4d %-9s %5d %4d %5d %10s %9d %8d %8s %6s %-10s %s\n",
				in.Inst, health, in.QueueDepth, in.Running, in.Swapped,
				fmt.Sprintf("%d/%d", in.UsedKVPages, in.UsedKVPages+in.FreeKVPages),
				in.ResidentTokens, in.SwappedTokens, humanBytes(in.HostBytes),
				headrm, in.Advisory, spark(in.QueueSpark))
		}
	}

	if len(s.Latency) > 0 {
		keys := make([]string, 0, len(s.Latency))
		for k := range s.Latency {
			if s.Latency[k].Count > 0 {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		if len(keys) > 0 {
			fmt.Fprintf(w, "\n%-6s %8s %10s %10s %10s %10s\n",
				"lat", "count", "p50 ms", "p95 ms", "p99 ms", "max ms")
			for _, k := range keys {
				l := s.Latency[k]
				fmt.Fprintf(w, "%-6s %8d %10.3f %10.3f %10.3f %10.3f\n",
					k, l.Count, l.P50Sec*1e3, l.P95Sec*1e3, l.P99Sec*1e3, l.MaxSec*1e3)
			}
		}
	}

	if len(s.SLOs) > 0 {
		fmt.Fprintf(w, "\n%-8s %-18s %9s %9s %s\n", "slo", "target", "fast burn", "slow burn", "state")
		for _, o := range s.SLOs {
			target := fmt.Sprintf("p%g <= %gs", o.Pctl, o.TargetSec)
			if o.Metric == "goodput" {
				target = fmt.Sprintf(">= %g tok/s", o.FloorTokensPerSec)
			}
			state := "ok"
			if o.Firing {
				state = "FIRING"
			}
			fmt.Fprintf(w, "%-8s %-18s %9.2f %9.2f %s\n",
				o.Metric, target, o.FastBurn, o.SlowBurn, state)
		}
	}

	if len(s.Alerts) > 0 {
		fmt.Fprintf(w, "\nalerts (%d):\n", len(s.Alerts))
		start := 0
		if len(s.Alerts) > 10 {
			start = len(s.Alerts) - 10
			fmt.Fprintf(w, "  ... %d earlier\n", start)
		}
		for _, a := range s.Alerts[start:] {
			where := "cluster"
			if a.Inst > 0 {
				where = fmt.Sprintf("inst %d", a.Inst)
			}
			fmt.Fprintf(w, "  %12.3f ms  %-8s %s\n", a.TimeUs/1e3, where, a.Note)
		}
	}
}
