// Package globalrand is a diffkv-vet fixture: draws from math/rand's
// process-global generator versus an explicitly seeded *rand.Rand.
package globalrand

import (
	"math/rand"
	randv2 "math/rand/v2"
)

func bad() {
	_ = rand.Intn(10)       // want "rand.Intn draws from math/rand's global generator"
	_ = rand.Float64()      // want "rand.Float64 draws from math/rand's global generator"
	rand.Seed(42)           // want "rand.Seed draws from math/rand's global generator"
	rand.Shuffle(3, nil)    // want "rand.Shuffle draws from math/rand's global generator"
	_ = rand.Perm(4)        // want "rand.Perm draws from math/rand's global generator"
	_ = rand.NormFloat64()  // want "rand.NormFloat64 draws from math/rand's global generator"
	_ = randv2.N[int64](10) // want "rand.N draws from math/rand's global generator"
}

func good(seed int64) float64 {
	// The required pattern: an explicit generator threaded through.
	rng := rand.New(rand.NewSource(seed))
	_ = rng.Intn(10)
	var r *rand.Rand = rng // type references are fine
	return r.Float64()
}

// A parameter named after the package is a seeded generator: its Intn is
// a method, not the global draw.
func shadowed(rand *rand.Rand) int {
	return rand.Intn(10)
}
