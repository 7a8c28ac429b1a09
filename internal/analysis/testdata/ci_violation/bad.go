// Package civiolation is the injected-violation fixture scripts/vet.sh
// runs diffkv-vet against to prove the CI gate actually fails: every
// line below violates a check, and none carries an allow directive.
// If `diffkv-vet internal/analysis/testdata/ci_violation` ever exits 0,
// the gate is broken and vet.sh fails the build.
package civiolation

import (
	"math/rand"
	"time"
)

// ForEach stands for mathx.ForEach, which a fixture cannot import.
func ForEach(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func violations(m map[int]float64, ch chan int) {
	_ = time.Now()    // wallclock
	_ = rand.Intn(10) // globalrand
	var sum float64
	for _, v := range m { // maprange
		sum += v
	}
	go func() {}() // goroutine
	ch <- 1        // goroutine (send)
	var nowUs, wallMs float64
	_ = nowUs + wallMs // timeunits
	ForEach(len(m), 0, func(i int) {
		sum += float64(i) // foreach
	})
	_ = sum
}
