package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"diffkv/internal/serving"
	"diffkv/internal/workload"
)

// completionRequest is the accepted subset of the OpenAI completions
// request, extended with simulator-native fields: the engine models
// token counts, not text, so prompt_tokens pins the prompt length
// exactly (a text prompt is otherwise length-estimated), and
// prefix_group/prefix_len expose shared-prefix structure to the
// prefix cache and affinity routing.
type completionRequest struct {
	Model     string `json:"model"`
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens"`
	Stream    bool   `json:"stream"`

	PromptTokens int `json:"prompt_tokens"`
	PrefixGroup  int `json:"prefix_group"`
	PrefixLen    int `json:"prefix_len"`
}

// choice is one completion choice (the simulator always produces one).
type choice struct {
	Index        int     `json:"index"`
	Text         string  `json:"text"`
	FinishReason *string `json:"finish_reason"`
}

// usage is the OpenAI token-accounting block.
type usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// simInfo is the diffkv extension block: simulated-time observability a
// text API has no slot for.
type simInfo struct {
	SimTimeUs   float64 `json:"sim_time_us"`
	TTFTMs      float64 `json:"ttft_ms,omitempty"`
	E2EMs       float64 `json:"e2e_ms,omitempty"`
	Generated   int     `json:"generated,omitempty"`
	FirstToken  bool    `json:"first_token,omitempty"`
	Preemptions int     `json:"preemptions,omitempty"`
	// Attempts counts dispatches across instances; present only when >1
	// (the request survived an instance crash via re-dispatch).
	Attempts int `json:"attempts,omitempty"`
	// Phase-attributed latency (final responses only): the buckets sum
	// to e2e_ms.
	QueueMs   float64 `json:"queue_ms,omitempty"`
	PrefillMs float64 `json:"prefill_ms,omitempty"`
	DecodeMs  float64 `json:"decode_ms,omitempty"`
	StallMs   float64 `json:"stall_ms,omitempty"`
	SwappedMs float64 `json:"swapped_ms,omitempty"`
}

// completionResponse is one (non-streamed) completion, or one SSE chunk.
type completionResponse struct {
	ID      string   `json:"id"`
	Object  string   `json:"object"`
	Created int64    `json:"created"`
	Model   string   `json:"model"`
	Choices []choice `json:"choices"`
	Usage   *usage   `json:"usage,omitempty"`
	DiffKV  *simInfo `json:"diffkv,omitempty"`
}

var stop = "stop"

// completionInfo is the final response's simulator-side annotation:
// the request's latencies and phase breakdown in milliseconds. Attempts
// is reported only when the request was dispatched more than once, so
// single-dispatch responses omit the field entirely.
func completionInfo(cp serving.Completion) *simInfo {
	info := &simInfo{
		SimTimeUs:   cp.DoneUs,
		TTFTMs:      cp.TTFTUs() / 1e3,
		E2EMs:       cp.E2EUs() / 1e3,
		Generated:   cp.Req.GenLen,
		Preemptions: cp.Preemptions,
		QueueMs:     cp.Phases.QueueUs / 1e3,
		PrefillMs:   cp.Phases.PrefillUs / 1e3,
		DecodeMs:    cp.Phases.DecodeUs / 1e3,
		StallMs:     cp.Phases.StallUs / 1e3,
		SwappedMs:   cp.Phases.SwappedUs / 1e3,
	}
	if cp.Attempts > 1 {
		info.Attempts = cp.Attempts
	}
	return info
}

// fillerVocab supplies deterministic placeholder token text: the
// simulator computes timing and memory, not language, but streams must
// still carry visible tokens for curl-level inspection.
var fillerVocab = []string{
	"the", "of", "a", "to", "in", "is", "page", "cache", "tier", "token",
	"key", "value", "quant", "step", "batch", "swap",
}

func fillerToken(seq, n int) string {
	return " " + fillerVocab[(seq*31+n*7)%len(fillerVocab)]
}

// estimatePromptTokens derives a simulated prompt length from a text
// prompt (~4 chars per token, floored at the workload generator's
// 16-token minimum so tiny demo prompts still exercise a real prompt
// phase).
func estimatePromptTokens(prompt string) int {
	n := len(strings.TrimSpace(prompt)) / 4
	if n < 16 {
		n = 16
	}
	return n
}

// bodyFieldAllowance bounds everything in a completion request body that
// is not prompt text: the six other fields, keys and punctuation.
const bodyFieldAllowance = 1 << 10

// maxBodyBytes is the largest request body handleCompletions reads: the
// longest prompt estimatePromptTokens still maps to MaxPromptTokens
// (4 bytes a token, rounded down) plus the allowance for the rest. A
// body past it is refused before it is buffered, where the token check
// could only run after the whole prompt was in memory.
func (g *Gateway) maxBodyBytes() int64 {
	return 4*(int64(g.cfg.MaxPromptTokens)+1) + bodyFieldAllowance
}

// handleCompletions serves POST /v1/completions: open a session on the
// loop, then either stream token progress as SSE chunks or block until
// completion. The request context rides into Open, so a client
// disconnect cancels the session and frees its KV pages at the next
// step boundary.
func (g *Gateway) handleCompletions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "invalid_request_error", "POST only")
		return
	}
	var req completionRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, g.maxBodyBytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "invalid_request_error",
				fmt.Sprintf("request body exceeds the limit of %d bytes", tooBig.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, "invalid_request_error",
			fmt.Sprintf("malformed request body: %v", err))
		return
	}
	promptTokens := req.PromptTokens
	if promptTokens <= 0 {
		promptTokens = estimatePromptTokens(req.Prompt)
	}
	if promptTokens > g.cfg.MaxPromptTokens {
		writeError(w, http.StatusBadRequest, "invalid_request_error",
			fmt.Sprintf("prompt_tokens %d exceeds the limit of %d", promptTokens, g.cfg.MaxPromptTokens))
		return
	}
	maxTokens := req.MaxTokens
	if maxTokens <= 0 {
		maxTokens = g.cfg.DefaultMaxTokens
	}
	if maxTokens > g.cfg.MaxTokensLimit {
		// bound before anything is sized from it (the SSE update channel,
		// the blocking path's completion text)
		writeError(w, http.StatusBadRequest, "invalid_request_error",
			fmt.Sprintf("max_tokens %d exceeds the limit of %d", maxTokens, g.cfg.MaxTokensLimit))
		return
	}
	if req.PrefixLen > promptTokens {
		writeError(w, http.StatusBadRequest, "invalid_request_error",
			"prefix_len exceeds the prompt length")
		return
	}
	wr := workload.Request{
		PromptLen:   promptTokens,
		GenLen:      maxTokens,
		PrefixGroup: req.PrefixGroup,
		PrefixLen:   req.PrefixLen,
	}

	if !req.Stream {
		g.completeBlocking(w, r, wr)
		return
	}
	g.completeSSE(w, r, wr)
}

// completeBlocking waits for the whole generation and returns one body.
func (g *Gateway) completeBlocking(w http.ResponseWriter, r *http.Request, wr workload.Request) {
	s, err := g.cfg.Loop.Open(r.Context(), wr, nil)
	if err != nil {
		g.writeOpenError(w, err)
		return
	}
	select {
	case <-s.Done():
	case <-g.cfg.Loop.Done():
		// loop stopped (hard shutdown or driver error) with the session
		// unfinished: nothing more will ever arrive
		writeError(w, http.StatusServiceUnavailable, "shutting_down", "serving loop stopped")
		return
	case <-r.Context().Done():
		// client gone; the loop reaps the session via its context
		return
	}
	cp, err := s.Completion()
	if err != nil {
		if errors.Is(err, serving.ErrFailed) {
			// the instance holding this request crashed and its re-dispatch
			// retry budget ran out: honest 503, with a drain-sized hint
			w.Header().Set("Retry-After", g.adaptiveRetryAfter(g.cfg.Loop.Metrics()))
			writeError(w, http.StatusServiceUnavailable, "failed", err.Error())
			return
		}
		writeError(w, http.StatusServiceUnavailable, "cancelled", err.Error())
		return
	}
	var text strings.Builder
	for n := 1; n <= cp.Req.GenLen; n++ {
		text.WriteString(fillerToken(cp.Req.ID, n))
	}
	resp := completionResponse{
		ID:      fmt.Sprintf("cmpl-%d", cp.Req.ID),
		Object:  "text_completion",
		Created: time.Now().Unix(),
		Model:   g.cfg.ModelName,
		Choices: []choice{{Text: text.String(), FinishReason: &stop}},
		Usage: &usage{
			PromptTokens:     cp.Req.PromptLen,
			CompletionTokens: cp.Req.GenLen,
			TotalTokens:      cp.Req.PromptLen + cp.Req.GenLen,
		},
		DiffKV: completionInfo(cp),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// completeSSE streams token progress as server-sent events. The OnToken
// callback runs on the loop goroutine, so it only forwards updates into
// a channel sized for the whole generation (one slot per token plus the
// First update — it can never block the loop); this goroutine owns the
// response writer.
func (g *Gateway) completeSSE(w http.ResponseWriter, r *http.Request, wr workload.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "server_error", "response writer cannot stream")
		return
	}
	updates := make(chan serving.TokenUpdate, wr.GenLen+4)
	s, err := g.cfg.Loop.Open(r.Context(), wr, func(u serving.TokenUpdate) {
		select {
		case updates <- u:
		default: // sized for the full stream; never block the loop
		}
	})
	if err != nil {
		g.writeOpenError(w, err)
		return
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	id := fmt.Sprintf("cmpl-%d", s.ID())
	created := time.Now().Unix()
	writeChunk := func(u serving.TokenUpdate) {
		text := ""
		if !u.First {
			text = fillerToken(s.ID(), u.Generated)
		}
		chunk := completionResponse{
			ID: id, Object: "text_completion", Created: created,
			Model:   g.cfg.ModelName,
			Choices: []choice{{Text: text}},
			DiffKV:  &simInfo{SimTimeUs: u.TimeUs, Generated: u.Generated, FirstToken: u.First},
		}
		data, _ := json.Marshal(chunk)
		fmt.Fprintf(w, "data: %s\n\n", data)
		flusher.Flush()
	}

	for {
		select {
		case u := <-updates:
			writeChunk(u)
		case <-s.Done():
			// the loop delivers every token update before finishing the
			// session, so drain the channel before the final chunk
			for {
				select {
				case u := <-updates:
					writeChunk(u)
					continue
				default:
				}
				break
			}
			cp, err := s.Completion()
			if err != nil {
				// cancelled (client disconnect or explicit): the SSE
				// stream just ends — there is no one left to tell
				return
			}
			final := completionResponse{
				ID: id, Object: "text_completion", Created: created,
				Model:   g.cfg.ModelName,
				Choices: []choice{{FinishReason: &stop}},
				Usage: &usage{
					PromptTokens:     cp.Req.PromptLen,
					CompletionTokens: cp.Req.GenLen,
					TotalTokens:      cp.Req.PromptLen + cp.Req.GenLen,
				},
				DiffKV: completionInfo(cp),
			}
			data, _ := json.Marshal(final)
			fmt.Fprintf(w, "data: %s\n\n", data)
			fmt.Fprint(w, "data: [DONE]\n\n")
			flusher.Flush()
			return
		case <-g.cfg.Loop.Done():
			return
		case <-r.Context().Done():
			// client disconnected mid-stream: the loop reaps the session
			// via its context and frees its KV pages
			return
		}
	}
}
