package serving

import (
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/kvcache/kvcachetest"
	"diffkv/internal/synth"
	"diffkv/internal/workload"
)

// TestKVStoreContract walks one sequence through each store the way the
// scheduler does and checks what the engine relies on: occupancy returns
// to where it started, a resident sequence weighs something, a shape
// adopted elsewhere weighs exactly the same, a prompt that does not fit
// changes nothing, and the counting store never fails.
func TestKVStoreContract(t *testing.T) {
	count := Config{Model: synth.Llama3_8B, Cluster: cluster(1), Traits: baselines.TraitsVLLM, Seed: 3}
	page := managerCfg(3)
	for _, tc := range []struct {
		name    string
		cfg     Config
		reserve float64 // MemoryReserve; the tiny pools hold 48 pages, under one page per head
		fails   bool    // the prompt does not fit
	}{
		{"count", count, 0.5, false},
		{"count-tiny", count, 0.9999, false},
		{"page", page, 0.5, false},
		{"page-tiny", page, 0.9999, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.MemoryReserve = tc.reserve
			kv := newEngine(t, tc.cfg).kv
			free0, used0 := kv.pages()
			drained := func(when string) {
				t.Helper()
				if free, used := kv.pages(); free != free0 || used != used0 {
					t.Fatalf("%s: pages (%d free, %d used), started at (%d, %d)", when, free, used, free0, used0)
				}
			}
			st := &seqState{req: workload.Request{ID: 1, PromptLen: 700, GenLen: 300}}
			if err := kv.register(st); err != nil {
				t.Fatal(err)
			}
			if kv.promptFits(st, nil) == tc.fails {
				t.Fatalf("promptFits %v for a prompt that fails: %v", !tc.fails, tc.fails)
			}
			if _, err := kv.prompt(st); (err != nil) != tc.fails {
				t.Fatalf("prompt error %v, want failure %v", err, tc.fails)
			} else if tc.fails {
				drained("after a failed prompt")
				if err := kv.release(st); err != nil {
					t.Fatal(err)
				}
				drained("after releasing the failed sequence")
				return
			}
			st.promptDone = true
			for i := 0; i < 200; i++ {
				if dur, err := kv.gen([]*seqState{st}); err != nil || dur <= 0 {
					t.Fatalf("gen %d: %v after %v", i, err, dur)
				}
				st.generated++
			}
			bytes := kv.kvBytes(st)
			if bytes <= 0 {
				t.Fatalf("resident sequence weighs %d bytes", bytes)
			}
			if _, used := kv.pages(); (used > used0) != (tc.cfg.UseManager) {
				t.Fatalf("%d pages in use with a resident sequence", used)
			}

			counts, err := kv.shape(st)
			if err != nil {
				t.Fatal(err)
			}
			tc.cfg.Seed++
			other := newEngine(t, tc.cfg).kv
			moved := &seqState{req: st.req, progress: st.progress}
			if err := other.adopt(moved, counts); err != nil {
				t.Fatal(err)
			}
			if got := other.kvBytes(moved); got != bytes {
				t.Fatalf("adopted sequence weighs %d bytes, exported %d", got, bytes)
			}
			if _, err := other.gen([]*seqState{moved}); err != nil {
				t.Fatalf("adopted sequence cannot generate: %v", err)
			}

			if err := kv.release(st); err != nil {
				t.Fatal(err)
			}
			drained("after release")
		})
	}
}

// genStepStore is a DiffKV page store at decode_heavy's generation shape:
// Llama3-8B, 256 KV heads per sequence, n sequences admitted with their
// prompts compacted and their windows filled, so every generation step
// draws one tier per head.
func genStepStore(tb testing.TB, n int) (*pageStore, []*seqState) {
	tb.Helper()
	cfg := managerCfg(42)
	cfg.HiFrac, cfg.LoFrac, cfg.MemoryReserve = 0.2, 0.25, 0.5
	e, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ps := e.kv.(*pageStore)
	seqs := make([]*seqState, n)
	for i := range seqs {
		seqs[i] = &seqState{req: workload.Request{ID: i + 1, PromptLen: 512, GenLen: 2048}}
	}
	admitGenBatch(tb, ps, seqs)
	return ps, seqs
}

// admitGenBatch registers and prompt-compacts every sequence of seqs, its
// window filled.
func admitGenBatch(tb testing.TB, ps *pageStore, seqs []*seqState) {
	tb.Helper()
	for _, st := range seqs {
		if err := ps.register(st); err != nil {
			tb.Fatal(err)
		}
		if _, err := ps.prompt(st); err != nil {
			tb.Fatal(err)
		}
		st.promptDone, st.winFill = true, 64
	}
}

// Once its scratch has grown, a generation step allocates nothing below
// the fan-out threshold and only the manager's plan closure from it:
// testing.AllocsPerRun runs at GOMAXPROCS 1, where mathx.ForEach runs the
// chunks inline. The step draws its tiers inside the manager's walk, so
// no draw closure is made beside the plan's.
func TestGenStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		seqs int
		want float64
	}{{8, 0}, {96, 1}} {
		ps, seqs := genStepStore(t, tc.seqs)
		if fans := tc.seqs*ps.heads >= kvcachetest.ParallelHeads; fans != (tc.want > 0) {
			t.Fatalf("%d sequences of %d heads: fan-out %v", tc.seqs, ps.heads, fans)
		}
		for i := 0; i < 3; i++ { // grow the page scratch past a typical step
			if _, err := ps.gen(seqs); err != nil {
				t.Fatal(err)
			}
		}
		var err error
		got := testing.AllocsPerRun(50, func() {
			if _, e := ps.gen(seqs); e != nil && err == nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%d sequences: %v allocs per generation step, want %v", tc.seqs, got, tc.want)
		}
	}
}

// BenchmarkGenStep is one generation step of the DiffKV page store at
// decode_heavy's shape, 96 sequences × 256 heads with their windows
// filled: the tier draws and the page manager's plan, take and attach.
// When the pool runs low the timer stops and the batch is released and
// admitted again. With -cpuprofile it is this layer's profile.
func BenchmarkGenStep(b *testing.B) {
	ps, seqs := genStepStore(b, 96)
	low := 2 * len(seqs) * ps.heads // a step takes at most a page per tier per head
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if free, _ := ps.pages(); free < low {
			b.StopTimer()
			for _, st := range seqs {
				if err := ps.release(st); err != nil {
					b.Fatal(err)
				}
			}
			admitGenBatch(b, ps, seqs)
			b.StartTimer()
		}
		if _, err := ps.gen(seqs); err != nil {
			b.Fatal(err)
		}
	}
}
