package httpapi

// Server-sent event streaming. A token chunk is appended, not marshalled:
// chunkEncoder renders a stream's constant head once and then appends
// each update's few varying fields, byte for byte what json.Marshal
// writes for the same completionResponse. And a stream writes what is
// due, then flushes once: every update already queued goes out in one
// flush, so a client that falls behind the loop catches up a batch at a
// time instead of a flush per token.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"

	"diffkv/internal/serving"
)

// sseDone is the event that ends every stream.
const sseDone = "data: [DONE]\n\n"

// writeEvent writes data as one SSE event.
func writeEvent(w io.Writer, data []byte) {
	io.WriteString(w, "data: ")
	w.Write(data)
	io.WriteString(w, "\n\n")
}

// drain hands write every value already queued on ch, without waiting
// for more.
func drain[T any](ch <-chan T, write func(T)) {
	for {
		select {
		case v := <-ch:
			write(v)
		default:
			return
		}
	}
}

// quotedFiller is each filler token as its JSON string literal, so a
// chunk's text is a copy rather than an escape pass.
var quotedFiller = func() [][]byte {
	q := make([][]byte, len(fillerVocab))
	for i, w := range fillerVocab {
		q[i], _ = json.Marshal(" " + w)
	}
	return q
}()

// chunkEncoder appends the SSE events of one stream's token updates:
// "data: ", the JSON of a completionResponse carrying the update, and the
// blank line that ends the event.
type chunkEncoder struct {
	seq int
	// head is everything up to the choice's text:
	// `data: {"id":…,"object":…,"created":…,"model":…,"choices":[{"index":0,"text":`
	head []byte
}

// newChunkEncoder renders the head of seq's chunks from resp's ID,
// Object, Created and Model.
func newChunkEncoder(seq int, resp completionResponse) chunkEncoder {
	id, _ := json.Marshal(resp.ID)
	object, _ := json.Marshal(resp.Object)
	model, _ := json.Marshal(resp.Model)
	h := append([]byte(`data: {"id":`), id...)
	h = append(append(h, `,"object":`...), object...)
	h = strconv.AppendInt(append(h, `,"created":`...), resp.Created, 10)
	h = append(append(h, `,"model":`...), model...)
	h = append(h, `,"choices":[{"index":0,"text":`...)
	return chunkEncoder{seq: seq, head: h}
}

// appendChunk appends u's event to dst. u.TimeUs must be finite, as the
// simulated clock always is.
func (c *chunkEncoder) appendChunk(dst []byte, u serving.TokenUpdate) []byte {
	dst = append(dst, c.head...)
	if u.First {
		dst = append(dst, `""`...)
	} else {
		dst = append(dst, quotedFiller[fillerIndex(c.seq, u.Generated)]...)
	}
	dst = append(dst, `,"finish_reason":null}],"diffkv":{"sim_time_us":`...)
	dst = appendJSONFloat(dst, u.TimeUs)
	if u.Generated != 0 {
		dst = strconv.AppendInt(append(dst, `,"generated":`...), int64(u.Generated), 10)
	}
	if u.First {
		dst = append(dst, `,"first_token":true`...)
	}
	return append(dst, "}}\n\n"...)
}

// appendJSONFloat appends f as encoding/json writes a float64: the
// shortest decimal, in exponent form below 1e-6 or from 1e21 up, with a
// one-digit negative exponent not zero-padded.
func appendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// chunkBufSize fits one token chunk of a typical model name; a longer
// head grows the buffer once.
const chunkBufSize = 256

// streamUpdates writes a stream's token chunks as the loop delivers them.
// It takes an update, then every update already queued behind it, and
// flushes once; the First update is the one a client's time to first
// token waits on, so it is flushed by itself. When finished closes it
// writes every update still queued and returns true, leaving the caller
// to end the stream and flush. It returns false, without flushing, when
// stopped or gone closes first.
func streamUpdates(w io.Writer, flusher http.Flusher, enc *chunkEncoder, updates <-chan serving.TokenUpdate,
	finished, stopped, gone <-chan struct{}) bool {
	buf := make([]byte, 0, chunkBufSize)
	write := func(u serving.TokenUpdate) {
		buf = enc.appendChunk(buf[:0], u)
		w.Write(buf)
	}
	for {
		select {
		case u := <-updates:
			write(u)
			if !u.First {
				drain(updates, write)
			}
			flusher.Flush()
		case <-finished:
			// the loop delivers every token update before finishing the
			// session, so the queue is complete
			drain(updates, write)
			return true
		case <-stopped:
			return false
		case <-gone:
			return false
		}
	}
}
