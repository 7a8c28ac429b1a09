//go:build amd64 && !race

package mathx

import "math"

// expOnFMAPath reports whether math.Exp takes the AVX+FMA path of
// math/exp_amd64.s on this host, the one expPairs transcribes. It probes
// the input TestExpTakesFMAPath pins, whose two paths round differently,
// so the gate is math's own useFMA (GODEBUG=cpu.fma=off clears it) and
// there is no second CPU-feature check to keep in step with it.
var expOnFMAPath = math.Float64bits(math.Exp(34.0/1024)) == 0x3ff08a487359f24d

// expKernel writes dst[i] = math.Exp(src[i]) for the first len(src)&^1
// elements and returns that count, or 0 off the FMA path: expPairs runs
// until a pair leaves exp's main path, math.Exp takes that pair, and
// expPairs resumes after it.
func expKernel(dst, src []float64) int {
	if !expOnFMAPath {
		return 0
	}
	n := len(src) &^ 1
	i := 0
	for {
		i += expPairs(dst[i:n], src[i:n])
		if i == n {
			return n
		}
		dst[i], dst[i+1] = math.Exp(src[i]), math.Exp(src[i+1])
		i += 2
	}
}

// logKernel writes dst[i] = math.Log(src[i]) for the first len(src)&^1
// elements and returns that count: logPairs runs until a pair holds a
// lane outside (0, +Inf), math.Log takes that pair, and logPairs resumes
// after it.
func logKernel(dst, src []float64) int {
	n := len(src) &^ 1
	i := 0
	for {
		i += logPairs(dst[i:n], src[i:n])
		if i == n {
			return n
		}
		dst[i], dst[i+1] = math.Log(src[i]), math.Log(src[i+1])
		i += 2
	}
}

// expPairs is math.Exp's AVX+FMA path two lanes at a time
// (expvec_amd64.s). It writes pairs from the start of src until one has a
// lane off that path's main branch, and returns the number of elements
// written. dst must hold as many as src.
//
//go:noescape
func expPairs(dst, src []float64) int

// logPairs is math.Log two lanes at a time (expvec_amd64.s). It writes
// pairs from the start of src until one has a lane outside (0, +Inf), and
// returns the number of elements written. dst must hold as many as src.
//
//go:noescape
func logPairs(dst, src []float64) int
