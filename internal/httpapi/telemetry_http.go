package httpapi

// Telemetry routes (mounted when Config.Telemetry is set): GET
// /debug/telemetry returns the full telemetry snapshot — per-instance
// occupancy and saturation, merged latency histograms, SLO burn rates
// and the recent alert ring — as one JSON document, and GET
// /debug/telemetry/stream pushes the same snapshot as SSE frames on a
// wall-clock cadence. cmd/diffkv-top renders either.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"diffkv/internal/disagg"
)

// handleTelemetry serves GET /debug/telemetry: one snapshot, rendered
// at request time from the center's current state.
func (g *Gateway) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "GET only")
		return
	}
	doc, err := g.telemetryDoc()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "server_error", err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(doc, '\n'))
}

// disaggSection is the /debug/telemetry "disagg" key: pool-split KV
// shipping state derived from the driver, not the telemetry center.
type disaggSection struct {
	Transfers      int                `json:"transfers"`
	KVBytesShipped int64              `json:"kv_bytes_shipped"`
	Links          []disagg.LinkBytes `json:"links,omitempty"`
	Pools          map[string]int     `json:"pools"`
}

// telemetryDoc renders the telemetry snapshot, augmented with a
// "disagg" section from the live driver stats when the cluster is
// disaggregated. The snapshot's own keys are untouched — consumers
// that don't know the extra key (diffkv-top) ignore it.
func (g *Gateway) telemetryDoc() ([]byte, error) {
	data, err := json.Marshal(g.cfg.Telemetry.Snapshot())
	if err != nil {
		return nil, err
	}
	d := g.cfg.Loop.Metrics().Driver
	if !disaggRun(d) {
		return data, nil
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	sec := disaggSection{
		Transfers:      d.KVTransfers,
		KVBytesShipped: d.KVBytesShipped,
		Links:          d.KVShipLinks,
		Pools:          map[string]int{},
	}
	for _, is := range d.PerInstance {
		if is.Role != "" {
			sec.Pools[is.Role]++
		}
	}
	if doc["disagg"], err = json.Marshal(sec); err != nil {
		return nil, err
	}
	return json.Marshal(doc)
}

// streamIntervalBounds clamp the client-supplied ?interval_ms.
const (
	streamIntervalMin     = 100 * time.Millisecond
	streamIntervalMax     = 30 * time.Second
	streamIntervalDefault = time.Second
)

// handleTelemetryStream serves GET /debug/telemetry/stream: snapshot
// frames as SSE, one per interval (?interval_ms, default 1000, clamped
// to [100, 30000]). The stream ends when the client disconnects or the
// loop stops; delivery is pull-based snapshots, so a slow client only
// delays its own frames.
func (g *Gateway) handleTelemetryStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "GET only")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "server_error", "response writer cannot stream")
		return
	}
	interval := streamIntervalDefault
	if s := r.URL.Query().Get("interval_ms"); s != "" {
		ms, err := strconv.Atoi(s)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "invalid_request_error",
				fmt.Sprintf("bad interval_ms %q", s))
			return
		}
		interval = time.Duration(ms) * time.Millisecond
		if interval < streamIntervalMin {
			interval = streamIntervalMin
		}
		if interval > streamIntervalMax {
			interval = streamIntervalMax
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	send := func() bool {
		data, err := g.telemetryDoc()
		if err != nil {
			return false
		}
		writeEvent(w, data)
		flusher.Flush()
		return true
	}
	if !send() {
		return
	}
	for {
		select {
		case <-ticker.C:
			if !send() {
				return
			}
		case <-g.cfg.Loop.Done():
			io.WriteString(w, sseDone)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
