package httpapi

// Debug routes over the trace collector (mounted when Config.Trace is
// set): GET /debug/requests/{id} returns one request's reconstructed
// span tree with its phase-attributed latency, GET /debug/trace
// downloads the retained events as a Perfetto-loadable trace-event
// file, and GET /debug/events tails the live event stream as SSE.
// Everything is rebuilt from the collector's event ring on demand — the
// gateway keeps no per-request state of its own.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"diffkv/internal/trace"
)

// handleDebugRequest serves GET /debug/requests/{id}: the span tree and
// phase breakdown of one request, looked up by sequence ID (the numeric
// tail of a completion's "cmpl-<id>", which is also accepted verbatim).
func (g *Gateway) handleDebugRequest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "GET only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/debug/requests/")
	idStr = strings.TrimPrefix(idStr, "cmpl-") // completion IDs work as-is
	seq, err := strconv.Atoi(idStr)
	if err != nil || seq <= 0 {
		writeError(w, http.StatusBadRequest, "invalid_request_error",
			fmt.Sprintf("bad request id %q", idStr))
		return
	}
	trees := trace.BuildRequestSpans(g.cfg.Trace.Events())
	rt := trace.FindRequestSpans(trees, seq)
	if rt == nil {
		writeError(w, http.StatusNotFound, "not_found",
			fmt.Sprintf("no trace events retained for request %d", seq))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rt)
}

// handleDebugTrace serves GET /debug/trace: the retained events as a
// Chrome/Perfetto trace-event JSON download (open in ui.perfetto.dev).
func (g *Gateway) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "GET only")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="diffkv-trace.json"`)
	if err := g.cfg.Trace.WritePerfetto(w); err != nil {
		// headers are gone; all that is left is to stop writing
		return
	}
}

// handleDebugEvents serves GET /debug/events: a live SSE tail of the
// trace event stream. Delivery is best-effort (a slow client skips
// events rather than stalling the serving loop); every event buffered
// when the tail wakes goes out in one flush. The stream ends when the
// client disconnects or the loop stops.
func (g *Gateway) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
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
	events, cancel := g.cfg.Trace.Subscribe(0)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	write := func(e trace.Event) {
		data, _ := json.Marshal(e)
		writeEvent(w, data)
	}
	for {
		select {
		case e := <-events:
			write(e)
			drain(events, write)
			flusher.Flush()
		case <-g.cfg.Loop.Done():
			io.WriteString(w, sseDone)
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}
