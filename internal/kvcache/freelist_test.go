package kvcache

import (
	"testing"
	"testing/quick"

	"diffkv/internal/mathx"
)

func TestFreeListAllocRecycleSingle(t *testing.T) {
	fl := NewFreeList(4)
	if fl.Free() != 4 || fl.Used() != 0 {
		t.Fatalf("fresh list: free=%d used=%d", fl.Free(), fl.Used())
	}
	ids := make(map[int32]bool)
	for i := 0; i < 4; i++ {
		id, err := fl.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if ids[id] {
			t.Fatalf("duplicate allocation of page %d", id)
		}
		ids[id] = true
	}
	if _, err := fl.Alloc(); err == nil {
		t.Fatal("expected out-of-pages error")
	}
	fl.Recycle(2)
	id, err := fl.Alloc()
	if err != nil || id != 2 {
		t.Fatalf("recycled page not reallocated: id=%d err=%v", id, err)
	}
}

func TestFreeListWrapAround(t *testing.T) {
	fl := NewFreeList(3)
	// cycle through many alloc/recycle rounds to force pointer wrap
	for round := 0; round < 10; round++ {
		a, _ := fl.Alloc()
		b, _ := fl.Alloc()
		if a == b {
			t.Fatal("duplicate ids")
		}
		fl.Recycle(a)
		fl.Recycle(b)
		if fl.Free() != 3 {
			t.Fatalf("free count drifted: %d", fl.Free())
		}
	}
}

func TestFreeListRecycleIntoFullPanics(t *testing.T) {
	fl := NewFreeList(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fl.Recycle(0)
}

func TestAllocBatchDisjoint(t *testing.T) {
	fl := NewFreeList(100)
	counts := []int32{3, 0, 5, 1, 7}
	lists, err := fl.AllocBatch(counts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	total := 0
	for i, l := range lists {
		if len(l) != int(counts[i]) {
			t.Fatalf("head %d got %d pages, want %d", i, len(l), counts[i])
		}
		for _, id := range l {
			if seen[id] {
				t.Fatalf("page %d allocated to two heads", id)
			}
			seen[id] = true
			total++
		}
	}
	if fl.Free() != 100-total {
		t.Fatalf("free count %d after allocating %d", fl.Free(), total)
	}
}

func TestAllocBatchInsufficient(t *testing.T) {
	fl := NewFreeList(4)
	if _, err := fl.AllocBatch([]int32{3, 3}); err == nil {
		t.Fatal("expected failure for demand 6 of 4")
	}
	// failed batch must not leak pages
	if fl.Free() != 4 {
		t.Fatalf("failed batch leaked pages: free=%d", fl.Free())
	}
}

func TestRecycleBatchRoundTrip(t *testing.T) {
	fl := NewFreeList(64)
	lists, err := fl.AllocBatch([]int32{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	fl.RecycleBatch(lists)
	if fl.Free() != 64 {
		t.Fatalf("free=%d after full recycle", fl.Free())
	}
	// all 64 pages must still be allocatable exactly once
	again, err := fl.AllocBatch([]int32{64})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for _, id := range again[0] {
		if seen[id] {
			t.Fatalf("page %d duplicated after recycle", id)
		}
		seen[id] = true
	}
	if len(seen) != 64 {
		t.Fatalf("only %d distinct pages after recycle", len(seen))
	}
}

func TestBatchWrapAround(t *testing.T) {
	fl := NewFreeList(10)
	// push the start pointer near the end of the ring
	first, err := fl.AllocBatch([]int32{7})
	if err != nil {
		t.Fatal(err)
	}
	fl.RecycleBatch(first)
	// now start=7; an 8-page batch must wrap
	lists, err := fl.AllocBatch([]int32{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for _, l := range lists {
		for _, id := range l {
			if seen[id] {
				t.Fatalf("duplicate page %d across wrap", id)
			}
			seen[id] = true
		}
	}
}

// Property: any interleaving of batch allocs and recycles conserves pages —
// no duplication, no loss.
func TestFreeListConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		const n = 32
		fl := NewFreeList(n)
		outstanding := make(map[int32]bool)
		var held [][]int32
		for _, op := range ops {
			if op%2 == 0 {
				// alloc a batch of up to 3 heads, up to 4 pages each
				counts := []int32{int32(op % 5), int32((op / 4) % 4), int32((op / 16) % 3)}
				lists, err := fl.AllocBatch(counts)
				if err != nil {
					continue // demand exceeded free: acceptable
				}
				for _, l := range lists {
					for _, id := range l {
						if outstanding[id] {
							return false // double allocation
						}
						outstanding[id] = true
					}
					if len(l) > 0 {
						held = append(held, l)
					}
				}
			} else if len(held) > 0 {
				idx := int(op) % len(held)
				l := held[idx]
				fl.RecycleBatch([][]int32{l})
				for _, id := range l {
					delete(outstanding, id)
				}
				held = append(held[:idx], held[idx+1:]...)
			}
			if fl.Free()+len(outstanding) != n {
				return false // conservation violated
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AllocBatch offsets honor the prefix-sum contract — each head's
// region follows the previous head's in ring order.
func TestAllocBatchOrderProperty(t *testing.T) {
	f := func(rawCounts []uint8) bool {
		if len(rawCounts) == 0 {
			return true
		}
		if len(rawCounts) > 16 {
			rawCounts = rawCounts[:16]
		}
		counts := make([]int32, len(rawCounts))
		var total int32
		for i, c := range rawCounts {
			counts[i] = int32(c % 4)
			total += counts[i]
		}
		n := int(total) + 8
		fl := NewFreeList(n)
		lists, err := fl.AllocBatch(counts)
		if err != nil {
			return false
		}
		// fresh list: ids must come out in ring order 0,1,2,...
		expect := int32(0)
		for _, l := range lists {
			for _, id := range l {
				if id != expect {
					return false
				}
				expect++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBatchLargeParallel(t *testing.T) {
	// a head count the size of a serving batch: thousands of regions cut
	// from one run of the ring
	nHeads := 8192
	fl := NewFreeList(3 * nHeads)
	counts := make([]int32, nHeads)
	rng := mathx.NewRNG(3)
	var total int
	for i := range counts {
		counts[i] = int32(rng.Intn(3))
		total += int(counts[i])
	}
	lists, err := fl.AllocBatch(counts)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int32]bool)
	for _, l := range lists {
		for _, id := range l {
			if seen[id] {
				t.Fatal("duplicate page in large parallel batch")
			}
			seen[id] = true
		}
	}
	if len(seen) != total {
		t.Fatalf("allocated %d distinct pages, want %d", len(seen), total)
	}
}
