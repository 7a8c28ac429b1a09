// Package maprange is a diffkv-vet fixture: map iteration in a
// deterministic package.
package maprange

import "sort"

type table struct {
	rows map[int]float64
}

func bad(m map[string]int) int {
	total := 0
	for _, v := range m { // want "map iteration order is randomized"
		total += v
	}
	return total
}

func badField(t *table) float64 {
	var sum float64
	for _, v := range t.rows { // want "map iteration order is randomized"
		sum += v
	}
	return sum
}

// M is a named map type: ranging over it is still map iteration.
type M map[int]int

type hist struct{ m M }

func (h *hist) snapshot() M { return h.m }

func badNamedMapResult(h *hist) int {
	n := 0
	for _, v := range h.snapshot() { // want "map iteration order is randomized"
		n += v
	}
	return n
}

func badCollectNoSort(m map[int]bool) []int {
	var keys []int
	for k := range m { // want "map iteration order is randomized"
		keys = append(keys, k)
	}
	return keys // never sorted: the slice order is nondeterministic
}

func goodSortedKeys(m map[string]int) int {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func goodFilteredCollect(m map[int]bool) []int {
	var keys []int
	for k := range m {
		if !m[k] {
			continue
		}
		if k > 0 {
			keys = append(keys, k)
		}
	}
	sort.Ints(keys)
	return keys
}

func goodClear(m map[int]bool) {
	for k := range m {
		delete(m, k)
	}
}

// series shares its field name with table.rows, but its rows are a
// slice.
type series struct {
	rows []float64
}

func goodSliceField(s *series) float64 {
	var sum float64
	for _, v := range s.rows { // a slice field, whatever other structs call theirs
		sum += v
	}
	return sum
}

func goodSlice(s []int) int {
	total := 0
	for _, v := range s { // slices iterate in order: not flagged
		total += v
	}
	return total
}
