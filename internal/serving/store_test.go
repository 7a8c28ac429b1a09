package serving

import (
	"runtime"
	"testing"

	"diffkv/internal/baselines"
	"diffkv/internal/kvcache"
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

// Each generation step places every head's candidate where the float
// tier test the thresholds replaced would: with u the head's Float64
// draw, high when u < hiF, else low when u < hiF+loF. Every step's
// counts are checked against that test applied to the counts before it,
// over 90 steps of 8 sequences × 256 heads, through every state a
// record's fractions take: fresh, a brownout admission's all-low
// (hiF = 0), a sequence moved all-low after its thresholds were made,
// one re-registered with new fractions and one whose window has not
// filled. A record's thresholds are those of its fractions whenever it
// draws.
func TestGenThresholdsMatchFloatFill(t *testing.T) {
	ps, seqs := genStepStore(t, 8)
	// seqs[2] is re-admitted as a brownout; seqs[5] is re-admitted with
	// its window empty
	for _, i := range []int{2, 5} {
		if err := ps.release(seqs[i]); err != nil {
			t.Fatal(err)
		}
		seqs[i].brownout = i == 2
		admitGenBatch(t, ps, seqs[i:i+1])
	}
	seqs[5].winFill = 0
	draws := 0
	for step := 0; step < 90; step++ {
		switch step {
		case 10: // moved all-low after its thresholds were made
			seqs[3].allLow()
		case 20: // new fractions under the same record
			if err := ps.release(seqs[6]); err != nil {
				t.Fatal(err)
			}
			admitGenBatch(t, ps, seqs[6:7])
		}
		before := make([][]kvcache.HeadDemand, len(seqs))
		want := make([][]kvcache.HeadDemand, len(seqs))
		at := 0
		for i, st := range seqs {
			counts, err := ps.shape(st)
			if err != nil {
				t.Fatal(err)
			}
			before[i], want[i] = counts, append([]kvcache.HeadDemand(nil), counts...)
			if st.winFill < genWindow {
				continue
			}
			rng := ps.rng.Ahead(uint64(at))
			hiF, loF := st.fractions()
			for h := range want[i] {
				u := rng.Float64At(uint64(h))
				switch {
				case u < hiF[h]:
					want[i][h].HiTokens++
				case u < hiF[h]+loF[h]:
					want[i][h].LoTokens++
				}
			}
			at += ps.heads
		}
		if _, err := ps.gen(seqs); err != nil {
			t.Fatal(err)
		}
		draws += at
		for i, st := range seqs {
			hiF, loF := st.fractions()
			got, err := ps.shape(st)
			if err != nil {
				t.Fatal(err)
			}
			for h := range got {
				if got[h] != want[i][h] {
					t.Fatalf("step %d, seq %d head %d (hiF %v, loF %v): counts %v → %v, the float test gives %v",
						step, i, h, hiF[h], loF[h], before[i][h], got[h], want[i][h])
				}
			}
			if st.thr == nil {
				continue
			}
			for h := range st.thr {
				if want := kvcache.NewTierThresholds(hiF[h], loF[h]); st.thr[h] != want {
					t.Fatalf("step %d, seq %d head %d: thresholds %+v, its fractions give %+v", step, i, h, st.thr[h], want)
				}
			}
		}
	}
	for _, i := range []int{2, 3} {
		hiF, _ := seqs[i].fractions()
		for h := range hiF {
			if hiF[h] != 0 || seqs[i].thr[h].Hi != 0 {
				t.Fatalf("seq %d head %d is not all-low: hiF %v, thresholds %+v", i, h, hiF[h], seqs[i].thr[h])
			}
		}
	}
	if seqs[5].winFill != genWindow || draws == 0 {
		t.Fatalf("the unfilled window reached %d of %d; %d draws", seqs[5].winFill, genWindow, draws)
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
		st.promptDone, st.winFill = true, genWindow
	}
}

// Once its scratch has grown, a generation step allocates nothing below
// the fan-out threshold and only the manager's plan closure from it:
// testing.AllocsPerRun runs at GOMAXPROCS 1, where mathx.ForEach runs the
// chunks inline. The threshold counts the heads that draw, so 96
// sequences whose windows have not filled stay inline. At GOMAXPROCS 2,
// with the pool's helper warm, a fanned-out step adds only ForEach's
// shared state: back-to-back steps find the helper lingering and start no
// goroutine. The step draws its tiers inside the manager's walk, so no
// draw closure is made beside the plan's.
func TestGenStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		seqs   int
		filled bool
		want   float64
	}{{8, true, 0}, {96, true, 1}, {96, false, 0}} {
		ps, seqs := genStepStore(t, tc.seqs)
		var err error
		gen := func() {
			if !tc.filled {
				for _, st := range seqs {
					st.winFill = 0
				}
			}
			if _, e := ps.gen(seqs); e != nil && err == nil {
				err = e
			}
		}
		gen()
		if fans := ps.genDraws >= kvcachetest.ParallelHeads; fans != (tc.want > 0) {
			t.Fatalf("%d sequences of %d heads, windows filled %v: %d drawing heads, fan-out %v", tc.seqs, ps.heads, tc.filled, ps.genDraws, fans)
		}
		for i := 0; i < 2; i++ { // grow the page scratch past a typical step
			gen()
		}
		got := testing.AllocsPerRun(50, gen)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%d sequences, windows filled %v: %v allocs per generation step, want %v", tc.seqs, tc.filled, got, tc.want)
		}
	}
	if runtime.NumCPU() < 2 {
		return // no helper lingers on one CPU
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	ps, seqs := genStepStore(t, 96)
	gen := func() {
		if _, err := ps.gen(seqs); err != nil {
			t.Fatal(err)
		}
	}
	gen() // grow the scratch and start the helper
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		gen()
	}
	runtime.ReadMemStats(&after)
	if got := int(after.Mallocs-before.Mallocs) / runs; got != 2 {
		t.Errorf("96 sequences at GOMAXPROCS 2: %d allocs per warm generation step, want 2", got)
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
