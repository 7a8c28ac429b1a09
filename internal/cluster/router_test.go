package cluster

import (
	"slices"
	"testing"

	"diffkv/internal/workload"
)

// TestPrefixAffinityHashMemoKey pins the hash memo's key: a request that
// differs from the last one hashed only outside the hash inputs reuses
// the memo, and one that differs in any single input is hashed afresh.
func TestPrefixAffinityHashMemoKey(t *testing.T) {
	p := NewPrefixAffinity(64, 8, 0).(*prefixAffinity)
	base := workload.Request{ID: 7, PromptLen: 512, PrefixGroup: 3, PrefixLen: 256}
	memo := p.blockHashes(base)
	same := base
	same.ArrivalUs, same.GenLen = 99, 5
	if got := p.blockHashes(same); &got[0] != &memo[0] {
		t.Fatal("a request with the same hash inputs was hashed again")
	}
	for _, v := range []struct {
		field  string
		mutate func(*workload.Request)
	}{
		{"ID", func(r *workload.Request) { r.ID++ }},
		{"PromptLen", func(r *workload.Request) { r.PromptLen += 64 }},
		{"PrefixGroup", func(r *workload.Request) { r.PrefixGroup++ }},
		{"PrefixLen", func(r *workload.Request) { r.PrefixLen += 64 }},
	} {
		r := base
		v.mutate(&r)
		want := r.BlockHashes(64)
		if slices.Equal(want, base.BlockHashes(64)) {
			t.Fatalf("%s: the variant does not change the hashes, so it tests nothing", v.field)
		}
		p.blockHashes(base)
		if got := p.blockHashes(r); !slices.Equal(got, want) {
			t.Fatalf("%s differs from the memo's request but its stale hashes came back", v.field)
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
