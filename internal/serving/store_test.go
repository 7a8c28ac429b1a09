package serving

import (
	"testing"

	"diffkv/internal/baselines"
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
