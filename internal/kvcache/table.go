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

// push appends a page ID on a side.
func (t *BiTable) push(level Level, id int32) error {
	if t.room() <= 0 {
		return tableOverflow(len(t.slots))
	}
	t.slots[t.at(level, t.n[level])] = id
	t.n[level]++
	return nil
}

// pop removes and returns a side's most recently pushed page.
func (t *BiTable) pop(level Level) (int32, error) {
	if t.n[level] == 0 {
		return -1, fmt.Errorf("kvcache: pop on empty %s side", level)
	}
	t.n[level]--
	i := t.at(level, t.n[level])
	id := t.slots[i]
	t.slots[i] = -1
	return id, nil
}

// drain removes every page ID from both sides and appends them to dst, the
// high side then the low side, each in push order.
func (t *BiTable) drain(dst []int32) []int32 {
	for _, level := range [2]Level{LevelHi, LevelLo} {
		for i := 0; i < t.n[level]; i++ {
			s := t.at(level, i)
			dst = append(dst, t.slots[s])
			t.slots[s] = -1
		}
	}
	t.n = [2]int{}
	return dst
}

// Hi returns the number of high-precision pages.
func (t *BiTable) Hi() int { return t.n[LevelHi] }

// Lo returns the number of low-precision pages.
func (t *BiTable) Lo() int { return t.n[LevelLo] }

// PushHi appends a high-precision page ID on the left side.
func (t *BiTable) PushHi(id int32) error { return t.push(LevelHi, id) }

// PushLo appends a low-precision page ID on the right side.
func (t *BiTable) PushLo(id int32) error { return t.push(LevelLo, id) }

// PopHi removes and returns the most recently pushed high-precision page.
func (t *BiTable) PopHi() (int32, error) { return t.pop(LevelHi) }

// PopLo removes and returns the most recently pushed low-precision page.
func (t *BiTable) PopLo() (int32, error) { return t.pop(LevelLo) }

// HiIDs returns the high-precision page IDs in push order (shared backing
// array; do not mutate).
func (t *BiTable) HiIDs() []int32 { return t.slots[:t.n[LevelHi]] }

// LoIDs returns the low-precision page IDs in push order (copied, since the
// right side is stored reversed).
func (t *BiTable) LoIDs() []int32 { return t.ids(LevelLo) }

// ids returns a copy of a side's page IDs in push order.
func (t *BiTable) ids(level Level) []int32 {
	out := make([]int32, t.n[level])
	for i := range out {
		out[i] = t.id(level, i)
	}
	return out
}

// DrainAll removes every page ID from both sides and returns them —
// used when a sequence finishes and its pages are recycled.
func (t *BiTable) DrainAll() []int32 { return t.drain(nil) }

// MetadataBytes returns the memory footprint of the table (4 bytes per
// slot) — the quantity behind the paper's "32 MB for batch 128 on
// Llama3-8B" claim.
func (t *BiTable) MetadataBytes() int { return 4 * len(t.slots) }

// MultiTable composes bidirectional tables to support more than two
// precision levels (paper §5.3): levels 2k and 2k+1 share the k-th
// bidirectional table (even levels on the high side, odd levels on the low
// side). Three levels therefore use one bidirectional plus one
// unidirectional table (a BiTable using only its high side), four levels
// use two bidirectional tables, and so on.
type MultiTable struct {
	tables []*BiTable
	levels int
}

// NewMultiTable creates a table stack for the given number of precision
// levels, each underlying table having n slots.
func NewMultiTable(levels, n int) *MultiTable {
	if levels < 1 {
		panic("kvcache: MultiTable needs at least one level")
	}
	nt := (levels + 1) / 2
	mt := &MultiTable{tables: make([]*BiTable, nt), levels: levels}
	for i := range mt.tables {
		mt.tables[i] = NewBiTable(n)
	}
	return mt
}

// Levels returns the number of precision levels.
func (m *MultiTable) Levels() int { return m.levels }

// side maps a precision level to its table and the side of it the level
// occupies.
func (m *MultiTable) side(level int) (*BiTable, Level) {
	if level < 0 || level >= m.levels {
		panic(fmt.Sprintf("kvcache: level %d out of range [0,%d)", level, m.levels))
	}
	return m.tables[level/2], Level(level % 2)
}

// Push appends a page ID at the given precision level.
func (m *MultiTable) Push(level int, id int32) error {
	t, side := m.side(level)
	return t.push(side, id)
}

// Pop removes the most recently pushed page at the given level.
func (m *MultiTable) Pop(level int) (int32, error) {
	t, side := m.side(level)
	return t.pop(side)
}

// Count returns the number of pages at the given level.
func (m *MultiTable) Count(level int) int {
	t, side := m.side(level)
	return t.count(side)
}

// IDs returns the page IDs of a level in push order.
func (m *MultiTable) IDs(level int) []int32 {
	t, side := m.side(level)
	return t.ids(side)
}

// DrainAll empties every level and returns all page IDs.
func (m *MultiTable) DrainAll() []int32 {
	var out []int32
	for _, t := range m.tables {
		out = t.drain(out)
	}
	return out
}

// MetadataBytes returns the total footprint of the stack.
func (m *MultiTable) MetadataBytes() int {
	var b int
	for _, t := range m.tables {
		b += t.MetadataBytes()
	}
	return b
}
