// Prefixcache: persist a compressed KV cache and restore it — the
// mechanism behind reusable system-prompt prefixes. A long shared prefix
// is compressed once through the DiffKV policy, snapshotted to a buffer
// (in production: a file or object store), and restored into a fresh
// manager byte-for-byte, skipping recomputation and recompression.
//
// The second act shows the host-memory prefix tier at serving time: a
// prefix group evicted from the GPU prefix cache spills to host memory
// instead of vanishing, and a returning request promotes it back over
// PCIe — a host-tier hit that still skips the prompt recompute.
package main

import (
	"bytes"
	"fmt"
	"log"

	"diffkv"

	"diffkv/internal/kvcache"
	"diffkv/internal/mathx"
	"diffkv/internal/policy"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

func main() {
	model := synth.Llama3_8B
	dim := model.HeadDim
	prefixLen := 512

	newMgr := func() *kvcache.Manager {
		m, err := kvcache.NewManager(kvcache.Config{
			Dim: dim, PageBytes: 8192, NumPages: 256,
			MaxSeqLen: 4096, Materialize: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return m
	}

	// --- serve the shared prefix once ---
	src := newMgr()
	sc, err := src.AddSequence(1, 1)
	if err != nil {
		log.Fatal(err)
	}
	hc := sc.Heads[0]

	rng := mathx.NewRNG(99)
	prof := synth.Profile(model, 8, 0, 1, rng)
	data := synth.GenHead(model, prof, prefixLen, rng.SplitAt(1))
	sig := data.SignificancePrefix(model, prefixLen, rng.SplitAt(2))
	params := policy.ParamsForModel(model.Name)
	levels := policy.ClassifyPrompt(sig, params)
	for i, lvl := range levels {
		switch lvl {
		case policy.LevelHigh:
			err = hc.AppendToken(kvcache.LevelHi, data.Keys[i], data.Vals[i], sig[i], int32(i))
		case policy.LevelLow:
			err = hc.AppendToken(kvcache.LevelLo, data.Keys[i], data.Vals[i], sig[i], int32(i))
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("compressed %d-token prefix: %d high / %d low / %d pruned, %d pages\n",
		prefixLen, hc.HiTokens(), hc.LoTokens(),
		prefixLen-hc.TotalTokens(), src.UsedPages())

	// --- snapshot it ---
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap, 1); err != nil {
		log.Fatal(err)
	}
	fp16Bytes := prefixLen * 4 * dim
	fmt.Printf("snapshot: %d bytes (FP16 prefix would be %d — %.1fx smaller)\n",
		snap.Len(), fp16Bytes, float64(fp16Bytes)/float64(snap.Len()))

	// --- restore into a fresh serving process ---
	dst := newMgr()
	if err := dst.ReadSnapshot(bytes.NewReader(snap.Bytes()), 7); err != nil {
		log.Fatal(err)
	}
	restored, _ := dst.Sequence(7)
	fmt.Printf("restored: %d high / %d low tokens across %d pages — ready to serve\n",
		restored.Heads[0].HiTokens(), restored.Heads[0].LoTokens(), dst.UsedPages())

	// --- act two: host-tier prefix spillover at serving time ---
	fmt.Println("\n--- host-memory prefix tier ---")
	method, err := diffkv.MethodByName("DiffKV")
	if err != nil {
		log.Fatal(err)
	}
	traits := method.ServingTraits(0.3)
	srv, err := diffkv.NewServer(diffkv.ServerConfig{
		Model: diffkv.Llama3_8B, Cluster: diffkv.NewCluster(diffkv.L40(), 1),
		Traits: traits, UseManager: true, HiFrac: 0.2, LoFrac: 0.25,
		PrefixCacheGroups: 1,       // GPU cache holds a single group
		HostMemoryBytes:   2 << 30, // evicted groups spill here
		Seed:              42,
	})
	if err != nil {
		log.Fatal(err)
	}
	mk := func(id, group int, at float64) workload.Request {
		return workload.Request{
			ID: id, ArrivalUs: at, PromptLen: 1024, GenLen: 32,
			PrefixGroup: group, PrefixLen: prefixLen,
		}
	}
	// group 1 warms the GPU cache, group 2 evicts it (spill to host),
	// then group 1 returns — served from the host tier
	res, err := srv.Run([]diffkv.Request{
		mk(1, 1, 0), mk(2, 2, 30e6), mk(3, 1, 60e6),
	})
	if err != nil {
		log.Fatal(err)
	}
	m := res.Offload
	fmt.Printf("GPU cache of 1 group, 2 groups in play: %d spill(s) to host, %d host hit(s) (%d prefix tokens reused)\n",
		m.PrefixSpills, m.PrefixHits, m.PrefixHitTokens)
	fmt.Println("the returning group skipped its prefix recompute after one PCIe promotion")
}
