package mathx

import "testing"

func TestOldestKey(t *testing.T) {
	if _, ok := OldestKey(map[int]float64{}, func(v float64) float64 { return v }); ok {
		t.Fatal("empty map reported a victim")
	}
	m := map[int]float64{7: 3, 4: 1, 9: 1, 2: 5}
	for range 20 { // map walk order varies between calls
		if k, ok := OldestKey(m, func(v float64) float64 { return v }); !ok || k != 4 {
			t.Fatalf("OldestKey = %d, %v; want 4 (oldest lastUse, lowest key among ties)", k, ok)
		}
	}
}
