package mathx

import (
	"runtime"
	"sync"
)

// ExclusiveScan writes the exclusive prefix sum of src into dst and returns
// the total sum. dst[i] = src[0] + ... + src[i-1]; dst[0] = 0. dst and src
// must have the same length; dst may alias src.
//
// This is the coordination primitive of parallel KV compaction (paper §5.2):
// converting per-head page demands into disjoint offsets in the circular
// free page list.
func ExclusiveScan(src, dst []int32) int32 {
	if len(src) != len(dst) {
		panic("mathx: ExclusiveScan length mismatch")
	}
	var acc int32
	for i, v := range src {
		dst[i] = acc
		acc += v
	}
	return acc
}

// parallelScanThreshold is the input size below which ParallelExclusiveScan
// falls back to the sequential scan: for small inputs goroutine fan-out
// costs more than it saves.
const parallelScanThreshold = 4096

// ParallelExclusiveScan is a work-efficient two-pass parallel exclusive
// prefix sum (block-wise reduce, scan of block sums, block-wise downsweep),
// the CPU analogue of the GPU prefix-sum used for compaction coordination.
// It writes into dst and returns the total. dst may alias src.
func ParallelExclusiveScan(src, dst []int32) int32 {
	n := len(src)
	if n != len(dst) {
		panic("mathx: ParallelExclusiveScan length mismatch")
	}
	if n < parallelScanThreshold {
		return ExclusiveScan(src, dst)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	blockSize := (n + workers - 1) / workers
	blockSums := make([]int32, workers)

	// Pass 1: per-block reduction.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var s int32
			for _, v := range src[lo:hi] {
				s += v
			}
			blockSums[w] = s
		}(w, lo, hi)
	}
	wg.Wait()

	// Scan of block sums (tiny, sequential).
	total := ExclusiveScan(blockSums, blockSums)

	// Pass 2: per-block downsweep with the block offset.
	for w := 0; w < workers; w++ {
		lo := w * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc := blockSums[w]
			for i := lo; i < hi; i++ {
				v := src[i]
				dst[i] = acc
				acc += v
			}
		}(w, lo, hi)
	}
	wg.Wait()
	return total
}
