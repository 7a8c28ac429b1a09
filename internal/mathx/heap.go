package mathx

// IndexedHeap is a min-heap of int IDs in [0, n) under a caller-supplied
// less, indexed by ID, so one ID is inserted, re-keyed or removed in
// O(log n). The keys live with the caller: after an ID's key changes, Set
// restores its place, before any other key changes.
//
// It is laid out as a winner tree: leaf n+id holds id while present, and
// every inner node k holds the least ID below it, the winner of its
// children 2k and 2k+1, so node 1 is the top. A change replays the
// matches on one leaf's path, one less call a level, and stops at the
// first match whose winner neither changes nor is the changed ID; there
// is no sifting and no position index to keep. less must be a strict
// total order over the IDs present (break key ties by ID): the top is
// then the same ID whatever order the IDs were set in.
type IndexedHeap struct {
	less func(a, b int) bool
	n    int
	win  []int // nodes 1..2n-1; -1 where no ID is present below
}

// NewIndexedHeap returns an empty heap over the IDs [0, n), n >= 1.
func NewIndexedHeap(n int, less func(a, b int) bool) *IndexedHeap {
	win := make([]int, 2*n)
	for k := range win {
		win[k] = -1
	}
	return &IndexedHeap{less: less, n: n, win: win}
}

// Grow widens the heap to the IDs [0, n), keeping every ID present; an n
// no larger than the current width is a no-op. It rebuilds the tree in
// O(n log n), so a caller that grows on demand doubles the width.
func (h *IndexedHeap) Grow(n int) {
	if n <= h.n {
		return
	}
	leaves := h.win[h.n:] // leaves[id] == id while id is present
	*h = *NewIndexedHeap(n, h.less)
	for id, w := range leaves {
		if w >= 0 {
			h.Set(id)
		}
	}
}

// Set inserts id, or fixes its place when it is present and its key has
// changed.
func (h *IndexedHeap) Set(id int) { h.replay(id, id) }

// Remove takes id out of the heap; removing an absent ID is a no-op.
func (h *IndexedHeap) Remove(id int) {
	if h.win[h.n+id] >= 0 {
		h.replay(id, -1)
	}
}

// Top returns the least ID under less, false when the heap is empty.
func (h *IndexedHeap) Top() (int, bool) {
	w := h.win[1] // over one ID, its leaf is node 1 itself
	return w, w >= 0
}

// replay stores leaf (id, or -1 to empty it) at id's leaf and replays
// the matches on its path to the root. Only id's key has changed, so once
// a match keeps a winner other than id, every match above it stands.
func (h *IndexedHeap) replay(id, leaf int) {
	k := h.n + id
	h.win[k] = leaf
	for ; k > 1; k >>= 1 {
		w, b := h.win[k&^1], h.win[k|1]
		if w < 0 || (b >= 0 && h.less(b, w)) {
			w = b
		}
		if old := h.win[k>>1]; old == w && w != id {
			return
		}
		h.win[k>>1] = w
	}
}
