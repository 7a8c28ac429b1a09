package cluster

import (
	"slices"

	"diffkv/internal/mathx"
)

// KVIndex is a prefix-hash index in the style of llm-d's prefixhashtable:
// it maps chained prompt-block hashes to the serving instances believed to
// hold those KV blocks, so the router can score instances by how much of a
// new prompt's prefix they already cache. The index is advisory — an
// instance may have evicted a block the index still advertises, which
// costs only a cache miss on the routed instance.
type KVIndex struct {
	capacity int
	entries  map[uint64]*indexEntry
	// counts is Matches' result, reused across calls: one slot per
	// instance ID up to the largest Add has seen
	counts []int
}

type indexEntry struct {
	insts   []int // IDs of the instances holding the block, each once
	lastUse float64
}

// DefaultIndexCapacity bounds the number of distinct blocks retained.
const DefaultIndexCapacity = 32768

// NewKVIndex builds an index retaining at most capacity blocks
// (<=0 selects DefaultIndexCapacity).
func NewKVIndex(capacity int) *KVIndex {
	if capacity <= 0 {
		capacity = DefaultIndexCapacity
	}
	return &KVIndex{capacity: capacity, entries: make(map[uint64]*indexEntry)}
}

// Len returns the number of retained blocks.
func (x *KVIndex) Len() int { return len(x.entries) }

// Add records that inst now holds the KV of every block in hashes,
// evicting least-recently-used blocks (ties to the lowest hash) beyond
// capacity.
func (x *KVIndex) Add(hashes []uint64, inst int, nowUs float64) {
	for _, h := range hashes {
		e := x.entries[h]
		if e == nil {
			e = &indexEntry{}
			x.entries[h] = e
		}
		if !slices.Contains(e.insts, inst) {
			e.insts = append(e.insts, inst)
		}
		e.lastUse = nowUs
	}
	if inst >= len(x.counts) {
		x.counts = make([]int, inst+1)
	}
	for len(x.entries) > x.capacity {
		victim, _ := mathx.OldestKey(x.entries, func(e *indexEntry) float64 { return e.lastUse })
		delete(x.entries, victim)
	}
}

// Matches scores each instance by how many consecutive leading blocks of
// the hash sequence it holds (llm-d early-stop semantics: scoring for an
// instance ends at its first missing block, and the scan ends at the first
// block no instance holds). The result is indexed by instance ID, one slot
// per instance up to the largest Add has seen; it is a buffer the index
// owns, valid until the next call.
func (x *KVIndex) Matches(hashes []uint64) []int {
	counts := x.startMatch()
	for i, h := range hashes {
		if !x.matchBlock(i, h) {
			break
		}
	}
	return counts
}

// startMatch zeroes and returns the scores of a new Matches scan, which
// matchBlock then advances one block at a time.
func (x *KVIndex) startMatch() []int {
	clear(x.counts)
	return x.counts
}

// matchBlock scores block i of the scan, hash h, and reports whether the
// scan goes on: false at a block no instance holds or no instance still
// matching holds.
func (x *KVIndex) matchBlock(i int, h uint64) bool {
	e := x.entries[h]
	if e == nil {
		return false
	}
	// an instance is still matching at block i iff it held blocks 0..i-1
	advanced := false
	for _, inst := range e.insts {
		if x.counts[inst] == i {
			x.counts[inst]++
			advanced = true
		}
	}
	return advanced
}
