package mathx

import "testing"

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 37
		hits := make([]int, n)
		ForEach(n, workers, func(i int) { hits[i]++ })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	ForEach(0, 4, func(i int) { t.Fatal("fn called for n=0") })
}
