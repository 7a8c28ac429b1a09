// Package disagg implements prefill/decode disaggregation for the
// cluster simulator: pool roles, the request splitter, the KV-transfer
// queue, and the per-link shipment ledger.
//
// Disaggregated serving splits the fleet into a prefill pool (prompt
// passes only — large, bursty, compute-bound batches) and a decode pool
// (token generation only — steady, memory-bound batches), with any
// remainder serving both roles. Each admitted request becomes two
// sub-requests sharing the parent's ID: a prefill child (GenLen 1, so
// the first output token — the TTFT point — is produced where the
// prompt ran) routed to the prefill pool, and a decode child carrying
// the remaining generation budget that resumes on a decode instance
// once the finished prefill's compressed KV pages cross the NIC. The
// split follows the BLIS-style parent→children design (SNIPPETS.md
// Snippet 2); what this repo adds is the quant-tier economics — K4V2
// pages ship 3-6× cheaper than FP16, which moves the prefill:decode
// crossover point (the `disagg` experiment sweeps it).
//
// The package is pure bookkeeping: deterministic, no clocks, no RNG.
// The cluster layer owns the event loop and the serving engines; it
// asks this package who plays which role, how to split a request, which
// transfer is due next, and what has been shipped so far.
package disagg

import (
	"fmt"
	"sort"

	"diffkv/internal/workload"
)

// Role tags a serving instance's pool membership.
type Role string

const (
	// RolePrefill instances run prompt passes only: fresh requests are
	// routed here and leave after their first output token.
	RolePrefill Role = "prefill"
	// RoleDecode instances run token generation only: they adopt shipped
	// prefills and never see a raw prompt.
	RoleDecode Role = "decode"
	// RoleMixed instances serve both phases (colocated serving; also the
	// remainder of a fleet larger than the two pools).
	RoleMixed Role = "mixed"
)

// Config sizes the pools. Instances [0, PrefillInstances) are the
// prefill pool, the next DecodeInstances the decode pool, and any
// remainder serves mixed.
type Config struct {
	PrefillInstances int
	DecodeInstances  int
}

// Validate checks the pool split against the fleet size.
func (c Config) Validate(instances int) error {
	if c.PrefillInstances < 1 || c.DecodeInstances < 1 {
		return fmt.Errorf("disagg: both pools need at least one instance (prefill %d, decode %d)",
			c.PrefillInstances, c.DecodeInstances)
	}
	if n := c.PrefillInstances + c.DecodeInstances; n > instances {
		return fmt.Errorf("disagg: pools need %d instances, cluster has %d", n, instances)
	}
	return nil
}

// Roles assigns every instance of an n-instance fleet its pool role.
func (c Config) Roles(n int) []Role {
	roles := make([]Role, n)
	for i := range roles {
		switch {
		case i < c.PrefillInstances:
			roles[i] = RolePrefill
		case i < c.PrefillInstances+c.DecodeInstances:
			roles[i] = RoleDecode
		default:
			roles[i] = RoleMixed
		}
	}
	return roles
}

// Split turns a parent request into its prefill child and reports
// whether a decode handoff follows. The prefill child keeps the
// parent's ID and arrival but generates exactly one token — the TTFT
// point stays honestly attributed to the prefill instance. A parent
// with GenLen 1 has nothing left to hand off: its prefill child is the
// whole request and no transfer is scheduled.
func Split(r workload.Request) (prefill workload.Request, handoff bool) {
	prefill = r
	if r.GenLen <= 1 {
		return prefill, false
	}
	prefill.GenLen = 1
	return prefill, true
}

// Transfer is one scheduled prefill→decode KV shipment.
type Transfer struct {
	// SeqID is the parent request ID whose KV is in flight.
	SeqID int
	// From / To are 0-based instance indices.
	From, To int
	// Bytes is the packed payload crossing the wire; DueUs the delivery
	// time (prefill completion + NICTransfer).
	Bytes int64
	DueUs float64
}

// Queue orders pending transfers by delivery time (ties by sequence ID,
// so the drain order is deterministic under equal clocks).
type Queue struct {
	pending []Transfer
}

// Push inserts a transfer in due order.
func (q *Queue) Push(t Transfer) {
	i := sort.Search(len(q.pending), func(i int) bool {
		p := q.pending[i]
		if p.DueUs != t.DueUs {
			return p.DueUs > t.DueUs
		}
		return p.SeqID > t.SeqID
	})
	q.pending = append(q.pending, Transfer{})
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = t
}

// Len reports how many transfers are in flight.
func (q *Queue) Len() int { return len(q.pending) }

// NextDue returns the earliest delivery time, false when empty.
func (q *Queue) NextDue() (float64, bool) {
	if len(q.pending) == 0 {
		return 0, false
	}
	return q.pending[0].DueUs, true
}

// Pop removes and returns the earliest transfer; ok is false when empty.
func (q *Queue) Pop() (Transfer, bool) {
	if len(q.pending) == 0 {
		return Transfer{}, false
	}
	t := q.pending[0]
	q.pending = q.pending[1:]
	return t, true
}

// LinkBytes is one (from, to) instance pair's lifetime shipment record.
type LinkBytes struct {
	// From / To are 1-based instance tags (matching trace.Event.Inst).
	From, To  int
	Bytes     int64
	Transfers int
}

// Ledger accumulates shipment traffic per directed instance link.
type Ledger struct {
	links map[[2]int]*LinkBytes
}

// Record books one shipment on the (from, to) link (0-based indices).
func (l *Ledger) Record(from, to int, bytes int64) {
	if l.links == nil {
		l.links = make(map[[2]int]*LinkBytes)
	}
	k := [2]int{from, to}
	lb := l.links[k]
	if lb == nil {
		lb = &LinkBytes{From: from + 1, To: to + 1}
		l.links[k] = lb
	}
	lb.Bytes += bytes
	lb.Transfers++
}

// Links returns the per-link records ordered by (from, to) — a
// deterministic export regardless of recording order.
func (l *Ledger) Links() []LinkBytes {
	out := make([]LinkBytes, 0, len(l.links))
	for _, lb := range l.links {
		out = append(out, *lb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// TotalBytes sums shipment traffic across links.
//
//diffkv:allow deadcode -- tests see shipment byte conservation through it: the per-link ledger sums to the bytes handed off
func (l *Ledger) TotalBytes() int64 {
	var n int64
	for _, lb := range l.Links() {
		n += lb.Bytes
	}
	return n
}
