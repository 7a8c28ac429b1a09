package kvcache

import "fmt"

// BiTable is the bidirectional page table of one (request, KV-head) pair
// (paper §5.2): a single fixed-length array in which high-precision page
// IDs grow from the left and low-precision page IDs grow from the right.
// Its length is MaxSeqLen / tokensPerHighPrecisionPage, which can never
// overflow because low-precision pages always hold more tokens than
// high-precision ones.
type BiTable struct {
	slots []int32
	n     [2]int // pages per side, indexed by Level: hi grows from the left, lo from the right
}

// NewBiTable creates a table with n slots.
func NewBiTable(n int) *BiTable {
	if n <= 0 {
		panic("kvcache: bidirectional table needs at least one slot")
	}
	t := &BiTable{slots: make([]int32, n)}
	for i := range t.slots {
		t.slots[i] = -1
	}
	return t
}

// Len returns the table capacity in slots.
func (t *BiTable) Len() int { return len(t.slots) }

// count returns the number of pages on a side.
func (t *BiTable) count(level Level) int { return t.n[level] }

// room returns the number of unused slots.
func (t *BiTable) room() int { return len(t.slots) - t.n[LevelHi] - t.n[LevelLo] }

// at returns the slot index of a side's i-th page in push order.
func (t *BiTable) at(level Level, i int) int {
	if level == LevelHi {
		return i
	}
	return len(t.slots) - 1 - i
}

// id returns a side's i-th page ID in push order.
func (t *BiTable) id(level Level, i int) int32 { return t.slots[t.at(level, i)] }

// tableOverflow is the error of needing more slots than a table has room
// for.
func tableOverflow(slots int) error {
	return fmt.Errorf("kvcache: bidirectional table overflow (%d slots)", slots)
}

// push appends page IDs on a side, in order: the high side's run is one
// copy, the low side's is written right to left. Room is checked once, and
// a push that does not fit writes nothing.
func (t *BiTable) push(level Level, ids ...int32) error {
	if len(ids) > t.room() {
		return tableOverflow(len(t.slots))
	}
	n := t.n[level]
	if level == LevelHi {
		copy(t.slots[n:], ids)
	} else {
		lo := t.slots[:len(t.slots)-n]
		for i, id := range ids {
			lo[len(lo)-1-i] = id
		}
	}
	t.n[level] += len(ids)
	return nil
}

// drain removes every page ID from both sides and appends them to dst, the
// high side then the low side, each in push order, writing -1 back into
// every slot it empties.
func (t *BiTable) drain(dst []int32) []int32 {
	hi := t.slots[:t.n[LevelHi]]
	dst = append(dst, hi...)
	for i := range hi {
		hi[i] = -1
	}
	lo := t.slots[len(t.slots)-t.n[LevelLo]:]
	for i := len(lo) - 1; i >= 0; i-- {
		dst = append(dst, lo[i])
		lo[i] = -1
	}
	t.n = [2]int{}
	return dst
}

// MetadataBytes returns the memory footprint of the table (4 bytes per
// slot) — the quantity behind the paper's "32 MB for batch 128 on
// Llama3-8B" claim.
func (t *BiTable) MetadataBytes() int { return 4 * len(t.slots) }
