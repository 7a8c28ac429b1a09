package kvcache

import "fmt"

// FreeList is the circular free page list (paper §5.2): all page IDs live
// in a fixed ring; the free region is contiguous (module wrap-around),
// tracked by a start pointer (next allocation) and an implicit end pointer
// (start+free, next recycle slot). Contiguity is what lets batch
// allocation and recycling coordinate with a prefix sum: the batch is one
// run of the ring, and each head's share of it is the run sliced at the
// head's scanned offset.
type FreeList struct {
	ring    []int32
	start   int // index of the next free page ID to hand out
	freeCnt int // number of free pages
}

// NewFreeList creates a free list over page IDs [0, n).
func NewFreeList(n int) *FreeList {
	if n <= 0 {
		panic("kvcache: free list needs at least one page")
	}
	fl := &FreeList{ring: make([]int32, n), freeCnt: n}
	for i := range fl.ring {
		fl.ring[i] = int32(i)
	}
	return fl
}

// Free returns the number of free pages.
func (fl *FreeList) Free() int { return fl.freeCnt }

// Used returns the number of allocated pages.
func (fl *FreeList) Used() int { return len(fl.ring) - fl.freeCnt }

// end returns the recycle position (one past the last free slot).
func (fl *FreeList) end() int { return (fl.start + fl.freeCnt) % len(fl.ring) }

// take hands out the next n free page IDs into buf[:n], in the order n
// single Allocs would: one contiguous run of the ring, so at most two
// copies across the wrap. When n exceeds the free pages it returns an error
// and moves nothing.
func (fl *FreeList) take(n int, buf []int32) error {
	if n > fl.freeCnt {
		return fmt.Errorf("kvcache: out of pages: need %d, %d free (cap %d)", n, fl.freeCnt, len(fl.ring))
	}
	k := copy(buf[:n], fl.ring[fl.start:])
	copy(buf[k:n], fl.ring)
	fl.start = (fl.start + n) % len(fl.ring)
	fl.freeCnt -= n
	return nil
}

// give is take's inverse: it returns ids to the ring after the end pointer,
// in the order single Recycles would.
func (fl *FreeList) give(ids []int32) {
	if fl.freeCnt+len(ids) > len(fl.ring) {
		panic("kvcache: recycle overflows free list")
	}
	k := copy(fl.ring[fl.end():], ids)
	copy(fl.ring, ids[k:])
	fl.freeCnt += len(ids)
}

// Alloc hands out a single page ID.
func (fl *FreeList) Alloc() (int32, error) {
	if fl.freeCnt == 0 {
		return -1, fmt.Errorf("kvcache: out of pages (cap %d)", len(fl.ring))
	}
	id := fl.ring[fl.start]
	fl.start = (fl.start + 1) % len(fl.ring)
	fl.freeCnt--
	return id, nil
}

// Recycle returns a single page ID to the list.
//
//diffkv:allow deadcode -- the single-page reference TestTakeGiveMatchSingleOps holds give's ring order against, as Alloc is for take
func (fl *FreeList) Recycle(id int32) {
	if fl.freeCnt >= len(fl.ring) {
		panic("kvcache: recycle into full free list")
	}
	fl.ring[fl.end()] = id
	fl.freeCnt++
}

// AllocBatch is the caller-owned form of a batch allocation: counts[i] is
// the number of pages head i needs, and the result holds one ID slice per
// head, each head's region following the previous head's in ring order. On
// insufficient free pages it returns an error and allocates nothing.
// Manager does the same over its own scratch, without the result slices.
func (fl *FreeList) AllocBatch(counts []int32) ([][]int32, error) {
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	flat := make([]int32, total)
	if err := fl.take(total, flat); err != nil {
		return nil, err
	}
	out := make([][]int32, len(counts))
	off := 0
	for i, c := range counts {
		out[i] = flat[off : off+int(c) : off+int(c)]
		off += int(c)
	}
	return out, nil
}

// RecycleBatch returns every head's pages, head i's region following head
// i-1's after the end pointer.
func (fl *FreeList) RecycleBatch(ids [][]int32) {
	for _, l := range ids {
		fl.give(l)
	}
}
