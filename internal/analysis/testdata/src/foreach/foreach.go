// Package foreach is a diffkv-vet fixture: closures handed to a ForEach
// worker pool that write what the items share. The package declares its
// own ForEach, which stands for mathx's.
package foreach

import "sync"

// ForEach runs fn(i) for every i in [0, n).
func ForEach(n, workers int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

type opts struct{ workers int }

// forEach hands its func straight to ForEach, so its closures are held
// to the same rule.
func (o opts) forEach(n int, fn func(i int)) { ForEach(n, o.workers, fn) }

// each hands its func on through forEach: a wrapper of a wrapper.
func each(o opts, n int, fn func(int)) { o.forEach(n, fn) }

type acc struct{ sum float64 }

func (a *acc) add(v float64) { a.sum += v }

var total int

func bad(xs []float64, o opts) {
	var sum float64
	var done bool
	var a acc
	var mu sync.Mutex
	seen := map[int]bool{}
	out := make([]float64, len(xs))
	ForEach(len(xs), 0, func(i int) {
		sum += xs[i]   // want "writes captured sum"
		done = true    // want "writes captured done"
		total++        // want "writes captured total"
		seen[i] = true // want "writes captured map seen"
		out[0] = xs[i] // want "writes captured out"
		a.add(xs[i])   // want "writes captured a"
		p := &a        // want "writes captured a"
		p.sum = 0
		mu.Lock()   // want "writes captured mu"
		mu.Unlock() // want "writes captured mu"
	})
	o.forEach(len(xs), func(i int) {
		sum = xs[i] // want "writes captured sum"
	})
	each(o, len(xs), func(i int) {
		for _, done = range []bool{true} { // want "writes captured done"
		}
	})
	_, _ = sum, done
}

func good(xs []float64, o opts) []float64 {
	out := make([]float64, len(xs))
	rows := make([]struct{ v, w float64 }, len(xs))
	grid := make([][]float64, len(xs))
	ForEach(len(xs), 0, func(i int) {
		local := xs[i] * 2 // the closure's own variables are free
		local++
		var a acc
		a.add(local)
		out[i] = a.sum    // its own slot
		rows[i].v = local // a field below its own slot
		grid[i] = append(grid[i], local)
		grid[i][0] = out[len(xs)-1-i] // reading shared state is fine
		j := i
		out[j]++ // an index from a local the closure declared
	})
	o.forEach(len(xs), func(i int) {
		rows[i].w = 1
	})
	ForEach(len(xs), 0, func(i int) {
		//diffkv:allow foreach -- fixture: every item writes the same value
		out[0] = 1
	})
	return out
}
