package mathx

import "math"

// RNG is a small, fast, deterministic splittable random number generator
// (SplitMix64 core). Experiments seed one root RNG and split independent
// streams per layer / head / request, so results are reproducible regardless
// of goroutine scheduling.
type RNG struct {
	state uint64
	// cached spare normal variate for the Box-Muller transform
	spare    float64
	hasSpare bool
}

// NewRNG returns an RNG seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// SplitN derives the i-th of several independent child streams without
// advancing the parent more than once per call.
func (r *RNG) SplitAt(i uint64) *RNG {
	s := r.state + (i+1)*0xbf58476d1ce4e5b9
	mixed := mix64(s)
	return &RNG{state: mixed}
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next pseudorandom 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box-Muller).
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * f
	r.hasSpare = true
	return u * f
}

// LogNorm returns a log-normal variate with the given log-space mean and
// standard deviation.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("mathx: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// NormVec fills dst with independent normal variates of the given standard
// deviation.
func (r *RNG) NormVec(dst []float32, sigma float64) {
	for i := range dst {
		dst[i] = float32(sigma * r.Norm())
	}
}
