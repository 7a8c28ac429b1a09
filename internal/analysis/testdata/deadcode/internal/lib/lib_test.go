package lib

import "testing"

// The loader never reads this file: a caller here keeps nothing alive.
func TestOnlyTests(t *testing.T) {
	if OnlyTests() != 2 || Observed() != 3 {
		t.Fatal("fixture drifted")
	}
	f := &Fields{testSet: 1}
	Use(f)
	if f.testRead != 2 || f.observed != 3 {
		t.Fatal("fixture drifted")
	}
}
