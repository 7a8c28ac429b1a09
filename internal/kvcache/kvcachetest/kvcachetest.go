// Package kvcachetest moves kvcache's generation-step fan-out threshold
// for tests in other packages, so that a pinned digest can be checked with
// every step fanned out and with none.
package kvcachetest

import (
	"math"
	"testing"
	_ "unsafe" // for go:linkname

	_ "diffkv/internal/kvcache" // defines the variable the linkname names
)

// ParallelHeads is kvcache's default fan-out threshold, in heads: a
// generation step of this many drawing heads or more draws and plans its
// chunks on mathx.ForEach.
const ParallelHeads = 4096

// parallelHeads is kvcache's unexported threshold, reached by its symbol
// name.
//
//go:linkname parallelHeads diffkv/internal/kvcache.parallelHeads
var parallelHeads int

// RunAtBounds runs f as two subtests of t with kvcache's fan-out threshold
// forced: fanout=all sets it to 0, so every generation step is drawn and
// planned in chunks on mathx.ForEach, and fanout=none to math.MaxInt, so
// every step runs on the calling goroutine. Under -short only fanout=all
// runs: the serial half starts no goroutine, so the race detector has
// nothing to check in it.
//
// A linkname to a symbol that no longer exists links a fresh zero
// variable, so each subtest first checks that the threshold reads its
// default.
//
//diffkv:allow deadcode -- TestEngineDigestAtFanOutBounds and TestClusterDigestAtFanOutBounds hold every pinned digest with the fan-out forced on and off through it
func RunAtBounds(t *testing.T, f func(t *testing.T)) {
	for _, bound := range []struct {
		name string
		at   int
	}{{"all", 0}, {"none", math.MaxInt}} {
		t.Run("fanout="+bound.name, func(t *testing.T) {
			if testing.Short() && bound.at != 0 {
				t.Skip("the serial half starts no goroutine; it runs without -short")
			}
			if parallelHeads != ParallelHeads {
				t.Fatalf("kvcache.parallelHeads reads %d, its default is %d: the linkname names no variable, or the default moved", parallelHeads, ParallelHeads)
			}
			parallelHeads = bound.at
			defer func() { parallelHeads = ParallelHeads }()
			f(t)
		})
	}
}
