package lib

import "testing"

// The loader never reads this file: a caller here keeps nothing alive.
func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 2 || Observed() != 3 {
		t.Fatal("fixture drifted")
	}
}
