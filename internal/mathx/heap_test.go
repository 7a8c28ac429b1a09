package mathx

import "testing"

// TestIndexedHeapMatchesLinearMin drives random set (insert and re-key)
// and remove operations and, after each one, compares Top with a linear
// scan for the least present ID under the same order. Keys come from a
// small range, so ties are common and the ID tie-break is exercised.
// Halfway through, the heap grows to more than twice its width with its
// IDs in place, and the new IDs join the draws.
func TestIndexedHeapMatchesLinearMin(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64} {
		rng := NewRNG(uint64(n))
		wide := 2*n + 3
		key := make([]int, wide)
		present := make([]bool, wide)
		less := func(a, b int) bool { return key[a] < key[b] || (key[a] == key[b] && a < b) }
		h := NewIndexedHeap(n, less)
		ops, width := 20*n+200, n
		for op := 0; op < ops; op++ {
			if op == ops/2 {
				h.Grow(n) // no-op
				h.Grow(wide)
				width = wide
			}
			id := rng.Intn(width)
			if rng.Intn(3) == 0 {
				h.Remove(id)
				present[id] = false
			} else {
				key[id] = rng.Intn(8)
				h.Set(id)
				present[id] = true
			}
			want, wantOK := -1, false
			for i := range key {
				if present[i] && (!wantOK || less(i, want)) {
					want, wantOK = i, true
				}
			}
			got, ok := h.Top()
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("n=%d op %d: Top = %d, %v; linear min = %d, %v", n, op, got, ok, want, wantOK)
			}
		}
	}
}
