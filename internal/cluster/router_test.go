package cluster

import (
	"slices"
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/workload"
)

// TestPrefixChainMatchesBlockHashes checks prefix-affinity's hashing
// against workload.Request.BlockHashes, the definition: across random
// requests sharing one policy (so group chains are memoized by one
// request and extended by the next), the shared hashes Observe indexes
// are BlockHashes' shared prefix, every block another request of the
// group hashes alike, and the lazy scan scores exactly what
// KVIndex.Matches scores over the whole chain. Each request's own chain,
// unique tail included, is first indexed up to a random block on a random
// instance, so the scan must read, and hash right, every block up to
// there; a fully indexed chain is read to its end.
func TestPrefixChainMatchesBlockHashes(t *testing.T) {
	for _, bt := range []int{1, 16, 64, 100} {
		p := NewPrefixAffinity(bt, 8, 1<<20).(*prefixAffinity)
		rng := mathx.NewRNG(uint64(bt))
		for i := 0; i < 400; i++ {
			r := workload.Request{ID: 1 + rng.Intn(500), PromptLen: rng.Intn(40*bt + 1), PrefixGroup: rng.Intn(4)}
			switch rng.Intn(4) {
			case 0: // above the prompt
				r.PrefixLen = r.PromptLen + rng.Intn(3*bt+1)
			case 1: // below one block
				r.PrefixLen = rng.Intn(bt)
			default:
				r.PrefixLen = rng.Intn(r.PromptLen + 1)
			}
			want := r.BlockHashes(bt)
			shared := p.shared(r)
			if len(shared) != r.SharedBlocks(bt) || !slices.Equal(shared, want[:len(shared)]) {
				t.Fatalf("bt %d, %+v: memoized shared chain %x, BlockHashes %x", bt, r, shared, want)
			}
			// the memoized blocks are exactly those another request of the
			// group hashes the same
			other := r
			other.ID += 1000
			if n, alike := len(shared), other.BlockHashes(bt); n < len(want) && alike[n] == want[n] {
				t.Fatalf("bt %d, %+v: block %d is shared with the group but not memoized", bt, r, n)
			}
			k, inst := rng.Intn(len(want)+1), rng.Intn(4)
			p.index.Add(want[:k], inst, float64(i))
			got := slices.Clone(p.matches(r))
			if exp := p.index.Matches(want); !slices.Equal(got, exp) {
				t.Fatalf("bt %d, %+v: lazy scan scores %v, Matches over BlockHashes %v", bt, r, got, exp)
			}
			if k > 0 && got[inst] < k {
				t.Fatalf("bt %d, %+v: scan stopped at block %d of %d indexed", bt, r, got[inst], k)
			}
		}
	}
}

// TestRouteZeroAllocs pins the cached routable view: once warm, a
// least-loaded routing decision over the whole fleet allocates nothing.
func TestRouteZeroAllocs(t *testing.T) {
	c := newTestCluster(t, PolicyLeastLoaded, func(cfg *Config) {
		cfg.Instances = 64
		cfg.MaxQueueDepth = 8
	})
	r := workload.Request{ID: 1, PromptLen: 512, GenLen: 64}
	if _, ok := c.route(r); !ok {
		t.Fatal("an idle fleet refused a request")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.route(r) }); allocs != 0 {
		t.Fatalf("route allocated %v per call", allocs)
	}
}

// BenchmarkRoute64 routes and records one arrival per iteration through
// prefix-affinity over 64 live traits-mode engines: the scan of the
// routable view, the block hashing and KVIndex.Matches, without the
// event loop around them.
func BenchmarkRoute64(b *testing.B) {
	c := newTestCluster(b, PolicyPrefixAffinity, func(cfg *Config) { cfg.Instances = 64 })
	reqs := sharedReqs(1024, 100, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		idx, _ := c.route(r)
		c.observe(r, idx, r.ArrivalUs)
	}
}
