package kvcache

import (
	"reflect"
	"testing"
	"testing/quick"

	"diffkv/internal/mathx"
)

// sideIDs returns a side's page IDs in push order.
func sideIDs(bt *BiTable, level Level) []int32 {
	ids := make([]int32, bt.count(level))
	for i := range ids {
		ids[i] = bt.id(level, i)
	}
	return ids
}

func TestBiTablePushPop(t *testing.T) {
	bt := NewBiTable(6)
	for i := int32(0); i < 3; i++ {
		if err := bt.push(LevelHi, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(10); i < 13; i++ {
		if err := bt.push(LevelLo, i); err != nil {
			t.Fatal(err)
		}
	}
	if bt.count(LevelHi) != 3 || bt.count(LevelLo) != 3 {
		t.Fatalf("hi/lo = %d/%d", bt.count(LevelHi), bt.count(LevelLo))
	}
	// table full now
	if err := bt.push(LevelHi, 99); err == nil {
		t.Fatal("expected overflow")
	}
	if err := bt.push(LevelLo, 99); err == nil {
		t.Fatal("expected overflow")
	}
	// push order preserved
	hi := sideIDs(bt, LevelHi)
	for i, id := range hi {
		if id != int32(i) {
			t.Fatalf("hi order wrong: %v", hi)
		}
	}
	lo := sideIDs(bt, LevelLo)
	for i, id := range lo {
		if id != int32(10+i) {
			t.Fatalf("lo order wrong: %v", lo)
		}
	}
}

func TestBiTableDrainAll(t *testing.T) {
	bt := NewBiTable(8)
	bt.push(LevelHi, 1)
	bt.push(LevelHi, 2)
	bt.push(LevelLo, 7)
	ids := bt.drain(nil)
	if len(ids) != 3 {
		t.Fatalf("drained %d ids", len(ids))
	}
	if bt.count(LevelHi) != 0 || bt.count(LevelLo) != 0 {
		t.Fatal("drain left entries")
	}
	// table reusable after drain
	if err := bt.push(LevelLo, 3); err != nil {
		t.Fatal(err)
	}
}

func TestBiTableMetadataBytes(t *testing.T) {
	if NewBiTable(100).MetadataBytes() != 400 {
		t.Fatal("metadata accounting wrong")
	}
}

func TestBiTablePaperMetadataClaim(t *testing.T) {
	// Paper §5.2: batch 128 on Llama3-8B (32 layers x 8 KV heads), total
	// bidirectional page tables ≈ 32 MB. With 8192 max seq len and a
	// high-precision page holding ~37 tokens (8KB page, K8V4, dim 128)
	// each table has ~222 slots ≈ 888 B; 128*32*8 tables ≈ 29 MB. Verify
	// the same order of magnitude.
	slots := (8192 + 37 - 1) / 37
	total := 128 * 32 * 8 * NewBiTable(slots).MetadataBytes()
	if total < 8<<20 || total > 64<<20 {
		t.Fatalf("page-table metadata = %d bytes, want tens of MB", total)
	}
}

// Property: any interleaving of hi/lo pushes never corrupts the other side
// and never exceeds capacity.
func TestBiTableInterleavingProperty(t *testing.T) {
	f := func(ops []bool) bool {
		n := 16
		bt := NewBiTable(n)
		var hiRef, loRef []int32
		next := int32(0)
		for _, hiSide := range ops {
			if hiSide {
				if err := bt.push(LevelHi, next); err != nil {
					if bt.count(LevelHi)+bt.count(LevelLo) != n {
						return false // spurious overflow
					}
				} else {
					hiRef = append(hiRef, next)
				}
			} else {
				if err := bt.push(LevelLo, next); err != nil {
					if bt.count(LevelHi)+bt.count(LevelLo) != n {
						return false
					}
				} else {
					loRef = append(loRef, next)
				}
			}
			next++
		}
		if bt.count(LevelHi) != len(hiRef) || bt.count(LevelLo) != len(loRef) {
			return false
		}
		for i, id := range sideIDs(bt, LevelHi) {
			if id != hiRef[i] {
				return false
			}
		}
		for i, id := range sideIDs(bt, LevelLo) {
			if id != loRef[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refTable is the one-ID-at-a-time model a BiTable's bulk push and drain
// must match: a push writes each ID into its side's next slot, checking
// room before each, and a drain empties the high side then the low side,
// each in push order, slot by slot.
type refTable struct {
	slots []int32
	n     [2]int
}

func (r *refTable) push(level Level, ids []int32) bool {
	if len(ids) > len(r.slots)-r.n[LevelHi]-r.n[LevelLo] {
		return false
	}
	for _, id := range ids {
		s := r.n[level]
		if level == LevelLo {
			s = len(r.slots) - 1 - s
		}
		r.slots[s] = id
		r.n[level]++
	}
	return true
}

func (r *refTable) drain(dst []int32) []int32 {
	for i := 0; i < r.n[LevelHi]; i++ {
		dst = append(dst, r.slots[i])
		r.slots[i] = -1
	}
	for i := 0; i < r.n[LevelLo]; i++ {
		s := len(r.slots) - 1 - i
		dst = append(dst, r.slots[s])
		r.slots[s] = -1
	}
	r.n = [2]int{}
	return dst
}

// Property: random runs of bulk pushes (empty, single, several IDs, some
// past the table's room) and drains leave the same slots and counts as the
// one-ID-at-a-time model after every call, refuse the same pushes without
// writing anything, and drain the same IDs in the same order.
func TestBiTableBulkMatchesSingleProperty(t *testing.T) {
	refused, drained := 0, 0
	for seed := uint64(1); seed <= 200; seed++ {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(24)
		bt := NewBiTable(n)
		ref := &refTable{slots: append([]int32(nil), bt.slots...)}
		next := int32(0)
		for step := 0; step < 60; step++ {
			if rng.Intn(6) == 0 {
				got, want := bt.drain(nil), ref.drain(nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: drained %v, one at a time %v", seed, step, got, want)
				}
				drained += len(got)
			} else {
				level := Level(rng.Intn(2))
				ids := make([]int32, rng.Intn(n/2+2))
				for i := range ids {
					ids[i] = next
					next++
				}
				err, ok := bt.push(level, ids...), ref.push(level, ids)
				if (err == nil) != ok {
					t.Fatalf("seed %d step %d: push of %d on %s: error %v, model accepts %v", seed, step, len(ids), level, err, ok)
				}
				if !ok {
					refused++
				}
			}
			if !reflect.DeepEqual(bt.slots, ref.slots) || bt.n != ref.n {
				t.Fatalf("seed %d step %d: slots %v counts %v, one at a time %v %v", seed, step, bt.slots, bt.n, ref.slots, ref.n)
			}
		}
	}
	if refused == 0 || drained == 0 {
		t.Fatalf("the runs refused %d pushes and drained %d IDs; both should be > 0", refused, drained)
	}
}
