package mathx

import "math"

// ExpVec writes dst[i] = math.Exp(src[i]) for every i, bit for bit on
// every host. dst may alias src. It panics unless the lengths are equal.
//
// On amd64 outside the race detector, and when math.Exp itself takes its
// AVX+FMA path, a two-lane kernel (expPairs) does the pairs: each lane
// repeats math.Exp's scalar steps exactly, so it rounds where math.Exp
// does. A pair that leaves exp's main path, and an odd last element, go
// through math.Exp. Everywhere else the body is a math.Exp loop.
func ExpVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mathx: ExpVec length mismatch")
	}
	for i := expKernel(dst, src); i < len(src); i++ {
		dst[i] = math.Exp(src[i])
	}
}

// LogVec writes dst[i] = math.Log(src[i]) for every i, bit for bit on
// every host. dst may alias src. It panics unless the lengths are equal.
//
// On amd64 outside the race detector a two-lane SSE2 kernel (logPairs)
// does the pairs, each lane repeating math.Log's single scalar path; a
// pair with a lane outside (0, +Inf), and an odd last element, go through
// math.Log. Everywhere else the body is a math.Log loop.
func LogVec(dst, src []float64) {
	if len(dst) != len(src) {
		panic("mathx: LogVec length mismatch")
	}
	for i := logKernel(dst, src); i < len(src); i++ {
		dst[i] = math.Log(src[i])
	}
}
