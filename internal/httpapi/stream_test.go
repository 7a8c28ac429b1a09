package httpapi

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"diffkv/internal/serving"
)

// marshalChunk is the token chunk as encoding/json writes it: what the
// gateway sent for each update before chunkEncoder.
func marshalChunk(t testing.TB, seq int, head completionResponse, u serving.TokenUpdate) string {
	t.Helper()
	text := ""
	if !u.First {
		text = fillerToken(seq, u.Generated)
	}
	c := head
	c.Choices = []choice{{Text: text}}
	c.DiffKV = &simInfo{SimTimeUs: u.TimeUs, Generated: u.Generated, FirstToken: u.First}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return "data: " + string(data) + "\n\n"
}

func chunkHead(seq int, model string) completionResponse {
	return completionResponse{
		ID: "cmpl-" + strconv.Itoa(seq), Object: "text_completion", Created: 1760000000, Model: model,
	}
}

func TestChunkEncoderMatchesMarshal(t *testing.T) {
	models := []string{"Llama3-8B", `a<b>&"c"`, "line\u2028sep\u2029", "", "\xffbad utf-8", `back\slash`}
	times := []float64{0, 1, 1234567, 1e20, 1e21, 1.5e21, 1e-7, 3.3e-9, 1e-6, 123.456, 999999.9999, 5e-324, math.MaxFloat64, -2.5}
	gens := []int{0, 1, 127, 1 << 30}
	for i, model := range models {
		seq := 1<<30 + i
		head := chunkHead(seq, model)
		enc := newChunkEncoder(seq, head)
		for _, ts := range times {
			for _, gen := range gens {
				for _, first := range []bool{false, true} {
					u := serving.TokenUpdate{Seq: seq, Generated: gen, TimeUs: ts, First: first}
					want := marshalChunk(t, seq, head, u)
					if got := string(enc.appendChunk(nil, u)); got != want {
						t.Fatalf("%+v, model %q:\n got %s\nwant %s", u, model, got, want)
					}
				}
			}
		}
	}
}

func FuzzChunkEncoder(f *testing.F) {
	f.Add(uint32(1), uint32(0), 0.0, true, "Llama3-8B")
	f.Add(uint32(1<<30), uint32(128), 1234.5, false, "<&>\u2028")
	f.Add(uint32(42), uint32(7), 1e-7, false, `m"q`)
	f.Add(uint32(3), uint32(99), 1e21, false, "\xff")
	f.Add(uint32(math.MaxUint32), uint32(math.MaxUint32), math.Copysign(0, -1), true, "")
	f.Fuzz(func(t *testing.T, seq, generated uint32, timeUs float64, first bool, model string) {
		if math.IsNaN(timeUs) || math.IsInf(timeUs, 0) {
			t.Skip("the simulated clock is finite")
		}
		head := chunkHead(int(seq), model)
		enc := newChunkEncoder(int(seq), head)
		u := serving.TokenUpdate{Seq: int(seq), Generated: int(generated), TimeUs: timeUs, First: first}
		want := marshalChunk(t, int(seq), head, u)
		if got := string(enc.appendChunk([]byte("kept"), u)); got != "kept"+want {
			t.Fatalf("%+v, model %q:\n got %s\nwant kept%s", u, model, got, want)
		}
	})
}

func TestChunkEncoderZeroAllocs(t *testing.T) {
	enc := newChunkEncoder(7, chunkHead(7, "Llama3-8B"))
	buf := make([]byte, 0, chunkBufSize)
	n := 0
	allocs := testing.AllocsPerRun(200, func() {
		n++
		buf = enc.appendChunk(buf[:0], serving.TokenUpdate{Seq: 7, Generated: n, TimeUs: 1e3 + 37.25*float64(n)})
	})
	if allocs != 0 {
		t.Fatalf("appendChunk into a reused buffer: %.1f allocs/op, want 0", allocs)
	}
}

// flushRecorder is a streaming response writer that hands over the bytes
// written before each flush.
type flushRecorder struct {
	pending []byte
	flushes chan string
}

func (r *flushRecorder) Write(p []byte) (int, error) {
	r.pending = append(r.pending, p...)
	return len(p), nil
}

func (r *flushRecorder) Flush() {
	r.flushes <- string(r.pending)
	r.pending = r.pending[:0]
}

func TestSSEFlushesOncePerDrain(t *testing.T) {
	const seq = 9
	enc := newChunkEncoder(seq, chunkHead(seq, "Llama3-8B"))
	chunks := func(us ...serving.TokenUpdate) string {
		var b []byte
		for _, u := range us {
			b = enc.appendChunk(b, u)
		}
		return string(b)
	}
	ups := []serving.TokenUpdate{{Seq: seq, TimeUs: 500, First: true}}
	for n := 1; n <= 8; n++ {
		ups = append(ups, serving.TokenUpdate{Seq: seq, Generated: n, TimeUs: 500 + 20*float64(n)})
	}
	never := make(chan struct{})

	t.Run("live", func(t *testing.T) {
		updates := make(chan serving.TokenUpdate, len(ups))
		rec := &flushRecorder{flushes: make(chan string, len(ups))}
		finished := make(chan struct{})
		for _, u := range ups[:5] {
			updates <- u
		}
		ret := make(chan bool)
		go func() { ret <- streamUpdates(rec, rec, &enc, updates, finished, never, never) }()
		next := func() string {
			t.Helper()
			select {
			case s := <-rec.flushes:
				return s
			case <-time.After(10 * time.Second):
				t.Fatal("no flush")
				return ""
			}
		}
		if got, want := next(), chunks(ups[0]); got != want {
			t.Fatalf("first flush:\n got %q\nwant the First chunk alone %q", got, want)
		}
		if got, want := next(), chunks(ups[1:5]...); got != want {
			t.Fatalf("second flush:\n got %q\nwant the four queued chunks %q", got, want)
		}
		updates <- ups[5] // the queue is empty: this one is due alone
		if got, want := next(), chunks(ups[5]); got != want {
			t.Fatalf("third flush:\n got %q\nwant %q", got, want)
		}
		close(finished)
		if !<-ret {
			t.Fatal("streamUpdates reported a stop, want finished")
		}
		if len(rec.pending) != 0 || len(rec.flushes) != 0 {
			t.Fatalf("finish with an empty queue wrote %q and flushed %d more times", rec.pending, len(rec.flushes))
		}
	})

	t.Run("finished drains", func(t *testing.T) {
		// select picks among ready cases at random, so repeat until both
		// first picks have run; either must write every queued update
		for i := 0; i < 50; i++ {
			updates := make(chan serving.TokenUpdate, len(ups))
			rec := &flushRecorder{flushes: make(chan string, len(ups))}
			for _, u := range ups {
				updates <- u
			}
			finished := make(chan struct{})
			close(finished)
			if !streamUpdates(rec, rec, &enc, updates, finished, never, never) {
				t.Fatal("streamUpdates reported a stop, want finished")
			}
			close(rec.flushes)
			var all strings.Builder
			for s := range rec.flushes {
				all.WriteString(s)
			}
			all.Write(rec.pending)
			if got, want := all.String(), chunks(ups...); got != want {
				t.Fatalf("finished stream wrote\n%q\nwant every queued update\n%q", got, want)
			}
		}
	})

	t.Run("stopped or gone", func(t *testing.T) {
		closed := make(chan struct{})
		close(closed)
		rec := &flushRecorder{flushes: make(chan string, 1)}
		empty := make(chan serving.TokenUpdate)
		if streamUpdates(rec, rec, &enc, empty, never, closed, never) ||
			streamUpdates(rec, rec, &enc, empty, never, never, closed) {
			t.Fatal("streamUpdates reported finished after a stop")
		}
	})
}

// BenchmarkSSEChunk encodes one 128-token stream: its head, the First
// chunk and 128 token chunks into one reused buffer.
func BenchmarkSSEChunk(b *testing.B) {
	const seq = 1<<30 + 1
	head := chunkHead(seq, "Llama3-8B")
	buf := make([]byte, 0, chunkBufSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := newChunkEncoder(seq, head)
		buf = enc.appendChunk(buf[:0], serving.TokenUpdate{Seq: seq, TimeUs: 8123.5, First: true})
		for n := 1; n <= 128; n++ {
			buf = enc.appendChunk(buf[:0], serving.TokenUpdate{Seq: seq, Generated: n, TimeUs: 8123.5 + 21.75*float64(n)})
		}
	}
}
