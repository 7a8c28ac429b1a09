package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public API, recorded by the
// harness around the call (the program itself is not instrumented).
// Parent is the id of the span that caused it (0 for the root) and Req
// groups the spans of one request.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder appends spans to a pre-sized in-memory slice; nothing is
// written until the run ends. A nil recorder records nothing, so the
// untraced reps share the traced rep's code without paying for it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Req: req, StartNs: now})
	r.mu.Unlock()
	return id
}

// end closes the span and returns its duration in nanoseconds.
func (r *recorder) end(id int) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.EndNs = now
	d := now - s.StartNs
	r.mu.Unlock()
	return d
}

// rename relabels an open span once the call's kind is known (a Step is
// only known to be a prompt or a generation step after it returns).
func (r *recorder) rename(id int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Name = name
	r.mu.Unlock()
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// durations returns the durations in microseconds of every span of the
// given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e3)
		}
	}
	return out
}

// layerTime is the summed time of every span of one name.
type layerTime struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of the interval its child spans cover.
// Children may overlap each other (two client connections under one
// root), so the covered part is the union of their intervals clipped to
// the parent, never the sum.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*layerTime)
	var names []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		dur := s.EndNs - s.StartNs
		lt.Count++
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of the children's intervals inside
// the parent's interval.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(a, b int) bool { return kids[a].StartNs < kids[b].StartNs })
	var total int64
	edge := parent.StartNs
	for _, k := range kids {
		lo, hi := max(k.StartNs, edge), min(k.EndNs, parent.EndNs)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// traceFile is what a traced run leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Layers   []layerTime        `json:"layers"`
	PerLayer map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func writeTrace(dir string, tf traceFile) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
