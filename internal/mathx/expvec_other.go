//go:build !amd64 || race

package mathx

// expKernel is ExpVec's two-lane kernel, which exists only on amd64
// outside the race detector (so the detector sees every access): here it
// writes nothing, and ExpVec's math.Exp loop does every element.
func expKernel(dst, src []float64) int { return 0 }

// logKernel is LogVec's two-lane kernel; as expKernel, it writes nothing
// here, and LogVec's math.Log loop does every element.
func logKernel(dst, src []float64) int { return 0 }
