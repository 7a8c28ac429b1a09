package mathx

import "math"

// RNG is a small, fast, deterministic splittable random number generator
// (SplitMix64 core). Experiments seed one root RNG and split independent
// streams per layer / head / request, so results are reproducible regardless
// of goroutine scheduling.
//
// It has two normal samplers. Norm (and LogNorm on it) is polar
// Box-Muller: the serving path's scalar draws — request lengths, per-head
// tier fractions — go through it, and every serving digest records its
// exact stream. LogNormInto is a batch of LogNorm calls, not a third
// sampler: it draws Norm's stream and takes the logs and exps through
// LogVec and ExpVec, which equal math.Log and math.Exp bit for bit.
// NormVec, the bulk float32 sampler behind the synthetic keys, values and
// queries, is a ziggurat, about three times as fast per variate; it never
// touches Norm's spare, so a stream's Norm draws and its NormVec draws
// interleave as they are called.
//
// Draw k of a stream depends only on its state and k (SplitMix64 adds a
// Weyl constant per draw), so a stream's draws can also be read by index:
// Ahead and Advance jump, and Uint64At and Float64At read draw k without
// moving the stream.
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

// SplitAt derives the i-th of several independent child streams. It reads
// the parent's state and never advances it, so the same i always gives the
// same child.
func (r *RNG) SplitAt(i uint64) *RNG {
	s := r.state + (i+1)*0xbf58476d1ce4e5b9
	mixed := mix64(s)
	return &RNG{state: mixed}
}

func mix64(z uint64) uint64 {
	z += weyl
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// weyl is SplitMix64's per-draw state increment: draw k of a stream
// depends only on its start state and k, so a stream can jump ahead.
const weyl = 0x9e3779b97f4a7c15

// Ahead returns a copy of r positioned n draws on — its next Uint64 is the
// one r would return after n calls — and leaves r where it is. The copy
// carries no spare normal variate. Workers that each own a disjoint range
// of one stream draw their ranges in parallel this way.
func (r *RNG) Ahead(n uint64) RNG {
	return RNG{state: r.state + n*weyl}
}

// Advance moves r n draws on, as n Uint64 calls would; a spare normal
// variate survives, as it does those calls.
func (r *RNG) Advance(n uint64) {
	r.state += n * weyl
}

// Uint64 returns the next pseudorandom 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += weyl
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1). The quotient is converted
// explicitly: the compiler turns the division into a product by 2^-53, and
// arm64 would fuse that product into a caller's add (2u − 1 in Norm, as
// u + u).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Uint64At returns draw k of r's stream, counting r's next draw as k = 0:
// what the last of k+1 Uint64 calls on a copy of r would return. It takes
// r by value and never moves it, so a stream's draws can be read by index,
// in any order, with no state carried from one to the next; a caller's
// copy of r stays in a register.
func (r RNG) Uint64At(k uint64) uint64 {
	return mix64(r.state + k*weyl)
}

// Float64At returns draw k of r's stream as a Float64, as Uint64At reads
// it: float64(Uint64At(k)>>11) / 2^53.
//
//diffkv:allow deadcode -- the float tier test the generation thresholds replaced reads draws through it: kvcache's TestGenLeafMatchesFloatFill and TestGenSourceMatchesGenCompact hold the integer leaf to it
func (r RNG) Float64At(k uint64) float64 {
	return float64(r.Uint64At(k)>>11) / (1 << 53)
}

// Threshold53 returns the integer form of the test u < f on a Float64 draw u:
// for every draw x, Float64At(k) < f exactly when Uint64At(k)>>11 <
// Threshold53(f). It is ⌈f·2^53⌉ on (0, 1), 0 at or below 0 and 2^53 from 1 on.
// The test is exact: u is m/2^53 for the 53-bit integer m = x>>11, and
// m/2^53 < f ⇔ m < f·2^53 ⇔ m < ⌈f·2^53⌉, since m is an integer; f·2^53
// only moves f's exponent, so the product is exact, and so is its
// ceiling, which is at most 2^53 and converts to an integer exactly.
func Threshold53(f float64) uint64 {
	switch {
	case !(f > 0): // NaN too: no u is below it
		return 0
	case f >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(f * (1 << 53)))
}

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate (Box-Muller). Each product is
// converted explicitly, so that no GOARCH fuses it into the add that
// follows; LogNormInto repeats these steps and relies on it.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
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
	return math.Exp(mu + float64(sigma*r.Norm()))
}

// logNormChunk is the number of polar pairs LogNormInto draws before it
// takes their logs in one batch.
const logNormChunk = 64

// LogNormInto fills dst with the values len(dst) LogNorm(mu, sigma) calls
// would return, bit for bit, and leaves the stream and the spare as they
// would: a spare held at entry is dst[0], and an odd count of the rest
// leaves its last pair's v·f as the spare. These are Norm's polar draws,
// not NormVec's ziggurat. It runs the rejection loops in order, up to 64
// pairs at a time, takes their logs through LogVec and the final exps
// through ExpVec, so the two transcendentals run two lanes at a time; it
// allocates nothing.
func (r *RNG) LogNormInto(dst []float64, mu, sigma float64) {
	z := dst
	if len(z) > 0 && r.hasSpare {
		r.hasSpare = false
		z[0] = r.spare
		z = z[1:]
	}
	var us, vs, ss, ls [logNormChunk]float64
	for len(z) > 0 {
		pairs := min((len(z)+1)/2, logNormChunk)
		for p := 0; p < pairs; p++ {
			for { // Norm's rejection loop
				u := float64(2*r.Float64()) - 1
				v := float64(2*r.Float64()) - 1
				s := float64(u*u) + float64(v*v)
				if s > 0 && s < 1 {
					us[p], vs[p], ss[p] = u, v, s
					break
				}
			}
		}
		LogVec(ls[:pairs], ss[:pairs])
		for p := 0; p < pairs; p++ {
			f := math.Sqrt(-2 * ls[p] / ss[p])
			z[0] = us[p] * f
			if len(z) == 1 {
				r.spare, r.hasSpare = vs[p]*f, true
				z = z[1:]
				break
			}
			z[1] = vs[p] * f
			z = z[2:]
		}
	}
	for i, x := range dst {
		dst[i] = mu + float64(sigma*x)
	}
	ExpVec(dst, dst)
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("mathx: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// NormVec fills dst with independent normal variates of the given standard
// deviation, drawn by the ziggurat of ziggurat.go. About 99 % of variates
// cost one Uint64, whose top 32 bits are the attempt, a table lookup and a
// multiply; the rest go through a wedge or tail test that draws Float64s
// from the same stream. Norm's polar Box-Muller spends 1.27 Uint64s, a Log
// and a Sqrt per variate. The draws are not Norm's: switching a caller
// between the two changes its values.
func (r *RNG) NormVec(dst []float32, sigma float64) {
	for i := range dst {
		j := int32(r.Uint64() >> 32)
		k := uint32(j) & 0x7f
		x := float64(j) * float64(wn[k])
		if absInt32(j) >= kn[k] {
			x = r.zigFinish(j)
		}
		dst[i] = float32(sigma * x)
	}
}
