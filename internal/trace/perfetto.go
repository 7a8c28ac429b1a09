package trace

// Chrome/Perfetto trace-event export: the collector's events rendered as
// a trace-event JSON file that loads directly in ui.perfetto.dev (or
// chrome://tracing). Each serving instance becomes a process track; the
// engine's prompt/gen steps are complete ("X") slices on a "steps"
// thread, and every request is an async nestable slice group ("b"/"e")
// whose children are its lifecycle phase spans and transfers, built from
// the same span builder the debug endpoints use. The raw events are
// embedded under "diffkvEvents" so an exported file round-trips through
// ReadEvents and the diffkv-trace CLI without loss.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// perfettoEvent is one trace-event entry (the subset of fields used).
type perfettoEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Cat   string         `json:"cat,omitempty"`
	ID    string         `json:"id,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
	Scope string         `json:"s,omitempty"`
}

// perfettoFile is the top-level trace-event JSON object.
type perfettoFile struct {
	TraceEvents []perfettoEvent `json:"traceEvents"`
	// DisplayTimeUnit selects the viewer's default unit (timestamps
	// themselves are microseconds, the trace-event standard).
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
	// DiffKVEvents embeds the raw event stream for lossless round-trips.
	DiffKVEvents []Event `json:"diffkvEvents"`
}

const (
	tidSteps    = 0
	tidRequests = 1
)

// WritePerfetto writes the retained events as Chrome/Perfetto
// trace-event JSON: one process track per serving instance, step slices
// and per-request async span groups, with the raw events embedded.
func (c *Collector) WritePerfetto(w io.Writer) error {
	events := c.Events()
	var out []perfettoEvent

	// process/thread metadata: one pid per instance tag seen
	insts := map[int]bool{}
	for _, e := range events {
		insts[e.Inst] = true
	}
	instList := make([]int, 0, len(insts))
	for inst := range insts {
		instList = append(instList, inst)
	}
	sort.Ints(instList)
	for _, inst := range instList {
		name := fmt.Sprintf("instance %d", inst)
		if inst == 0 {
			name = "engine"
		}
		out = append(out,
			perfettoEvent{Name: "process_name", Ph: "M", Pid: inst,
				Args: map[string]any{"name": name}},
			perfettoEvent{Name: "thread_name", Ph: "M", Pid: inst, Tid: tidSteps,
				Args: map[string]any{"name": "steps"}},
			perfettoEvent{Name: "thread_name", Ph: "M", Pid: inst, Tid: tidRequests,
				Args: map[string]any{"name": "requests"}},
		)
	}

	// step slices: the engine emits step events at the step's end with
	// its duration, so the slice starts DurUs earlier
	for _, e := range events {
		switch e.Kind {
		case KindPromptStep, KindGenStep:
			out = append(out, perfettoEvent{
				Name: string(e.Kind), Ph: "X", Cat: "step",
				Pid: e.Inst, Tid: tidSteps,
				Ts: e.TimeUs - e.DurUs, Dur: e.DurUs,
				Args: map[string]any{"batch": e.Batch},
			})
		}
	}

	// request span groups: async nestable slices, one group per request
	// on the instance it ended on
	for _, rt := range BuildRequestSpans(events) {
		id := fmt.Sprintf("%d/%d", rt.Inst, rt.Seq)
		name := fmt.Sprintf("req %d", rt.Seq)
		args := map[string]any{"seq": rt.Seq}
		if rt.Preemptions > 0 {
			args["preemptions"] = rt.Preemptions
		}
		out = append(out, perfettoEvent{
			Name: name, Ph: "b", Cat: "request", ID: id,
			Pid: rt.Inst, Tid: tidRequests, Ts: rt.StartUs, Args: args,
		})
		for _, sp := range rt.Root.Children {
			switch {
			case sp.StartUs == sp.EndUs:
				// instantaneous markers (dispatch, host_prefix_hit)
				ev := perfettoEvent{
					Name: sp.Name, Ph: "n", Cat: "request", ID: id,
					Pid: rt.Inst, Tid: tidRequests, Ts: sp.StartUs,
				}
				if sp.Bytes > 0 {
					ev.Args = map[string]any{"bytes": sp.Bytes}
				}
				out = append(out, ev)
			default:
				var spArgs map[string]any
				if sp.Bytes > 0 {
					spArgs = map[string]any{"bytes": sp.Bytes}
				}
				out = append(out,
					perfettoEvent{Name: sp.Name, Ph: "b", Cat: "request", ID: id,
						Pid: rt.Inst, Tid: tidRequests, Ts: sp.StartUs, Args: spArgs},
					perfettoEvent{Name: sp.Name, Ph: "e", Cat: "request", ID: id,
						Pid: rt.Inst, Tid: tidRequests, Ts: sp.EndUs})
			}
		}
		out = append(out, perfettoEvent{
			Name: name, Ph: "e", Cat: "request", ID: id,
			Pid: rt.Inst, Tid: tidRequests, Ts: rt.EndUs,
		})
	}

	// stable sort by timestamp: generation order already opens parents
	// before children at equal timestamps and closes children first
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(perfettoFile{
		TraceEvents:     out,
		DisplayTimeUnit: "ms",
		OtherData:       map[string]any{"generator": "diffkv"},
		DiffKVEvents:    events,
	}); err != nil {
		return fmt.Errorf("trace: perfetto: %w", err)
	}
	return bw.Flush()
}

// ReadEvents parses the raw events embedded in a trace-event file
// WritePerfetto wrote.
func ReadEvents(r io.Reader) ([]Event, error) {
	var pf struct {
		DiffKVEvents []Event `json:"diffkvEvents"`
	}
	if err := json.NewDecoder(r).Decode(&pf); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if pf.DiffKVEvents == nil {
		return nil, fmt.Errorf("trace: read: no diffkvEvents (not a diffkv trace file)")
	}
	return pf.DiffKVEvents, nil
}
