package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzCompletionsRequest feeds arbitrary bodies, streamed or not, to
// POST (or GET) /v1/completions on a traits-mode vLLM one-instance loop,
// each under a short deadline. Every response must be a 200, 400, 405,
// 413 or 503 with a well-formed JSON body or SSE stream, and no session
// may stay open once the loop has drained. A request whose deadline
// passed may end early: a blocking one with no body at all, a streamed
// one without its [DONE] (its client is gone either way). Manager mode
// is left out: a prompt its page table can never hold is retried
// forever, not refused.
func FuzzCompletionsRequest(f *testing.F) {
	for _, body := range []string{
		`{"prompt_tokens": 128, "max_tokens": 12, "stream": true}`,
		`{"prompt": "what is a KV cache?", "max_tokens": 8}`,
		`{"prompt_tokens": 1024, "max_tokens": 512, "stream": true}`,
		`{"prompt_tokens": 512, "max_tokens": 512}`,
		`{"prompt_tokens": 256, "max_tokens": 24}`,
		`{"prompt_tokens": 256, "max_tokens": 4, "prefix_group": 1, "prefix_len": -128}`,
		`{"prompt_tokens": 64, "max_tokens": 4}`,
		`{"prompt_tokens": 64, "max_tokens": 99999, "stream": true}`,
		`{"prompt_tokens": 2000000, "max_tokens": 4}`,
		`{"prompt_tokens": 64, "max_tokens": 4, "temperature": 0.7}`,
		`{"prompt_tokens": 64,`,
		``,
	} {
		f.Add(body, true)
	}
	f.Add(`{"prompt_tokens": 64, "max_tokens": 4}`, false)
	f.Fuzz(func(t *testing.T, body string, post bool) {
		l := engineLoop(t, traitsCfg(3), LoopConfig{})
		g, err := New(Config{Loop: l, ModelName: "Llama3-8B"})
		if err != nil {
			t.Fatal(err)
		}
		method := http.MethodPost
		if !post {
			method = http.MethodGet
		}
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest(method, "/v1/completions", strings.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, req)
		checkCompletionResponse(t, rec, ctx.Err() != nil)

		drain, stop := context.WithTimeout(context.Background(), 5*time.Second)
		defer stop()
		if err := l.Shutdown(drain); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if n := l.Metrics().Driver.OpenSessions; n != 0 {
			t.Fatalf("%d sessions open after the drain", n)
		}
	})
}

// checkCompletionResponse holds a /v1/completions response to the
// gateway's contract: an allowed status, and a JSON body or an SSE
// stream of JSON events ending in [DONE]. With expired set, the
// request's deadline passed, so the stream may stop short and a
// blocking response may be empty.
func checkCompletionResponse(t *testing.T, rec *httptest.ResponseRecorder, expired bool) {
	t.Helper()
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed,
		http.StatusRequestEntityTooLarge, http.StatusServiceUnavailable:
	default:
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if rec.Header().Get("Content-Type") == "text/event-stream" {
		events := strings.Split(body, "\n\n")
		if last := events[len(events)-1]; last != "" {
			t.Fatalf("stream ends inside an event: %q", last)
		}
		events = events[:len(events)-1]
		for i, ev := range events {
			data, ok := strings.CutPrefix(ev, "data: ")
			if !ok {
				t.Fatalf("event %d is not a data line: %q", i, ev)
			}
			if data == "[DONE]" {
				if i != len(events)-1 {
					t.Fatalf("[DONE] is event %d of %d", i, len(events))
				}
				return
			}
			if !json.Valid([]byte(data)) {
				t.Fatalf("event %d is not JSON: %q", i, data)
			}
		}
		if !expired {
			t.Fatalf("stream ended without [DONE]: %q", body)
		}
		return
	}
	if body == "" && expired && rec.Code == http.StatusOK {
		return
	}
	if rec.Code == http.StatusOK {
		var c completionResponse
		if err := json.Unmarshal([]byte(body), &c); err != nil || c.Object != "text_completion" || c.Usage == nil {
			t.Fatalf("200 without a completion body (%v): %q", err, body)
		}
		return
	}
	var eb errorBody
	if err := json.Unmarshal([]byte(body), &eb); err != nil || eb.Error.Type == "" || eb.Error.Message == "" {
		t.Fatalf("status %d without an error body (%v): %q", rec.Code, err, body)
	}
}
