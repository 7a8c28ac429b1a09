package kvcache

import (
	"testing"
	"testing/quick"
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
