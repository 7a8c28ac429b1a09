package cluster

import (
	"testing"

	"diffkv/internal/mathx"
	"diffkv/internal/workload"
)

// refIndex is the KVIndex as it was before Matches returned a slice: a
// set of instances per block and a two-map scan. It is the reference the
// slice-indexed index must agree with.
type refIndex struct {
	capacity int
	entries  map[uint64]*refEntry
}

type refEntry struct {
	insts   map[int]float64
	lastUse float64
}

func (x *refIndex) add(hashes []uint64, inst int, nowUs float64) {
	for _, h := range hashes {
		e := x.entries[h]
		if e == nil {
			e = &refEntry{insts: make(map[int]float64, 2)}
			x.entries[h] = e
		}
		e.insts[inst] = nowUs
		e.lastUse = nowUs
	}
	for len(x.entries) > x.capacity {
		var victim uint64
		first := true
		var victimT float64
		for h, e := range x.entries {
			if first || e.lastUse < victimT || (e.lastUse == victimT && h < victim) {
				victim, victimT = h, e.lastUse
				first = false
			}
		}
		delete(x.entries, victim)
	}
}

func (x *refIndex) matches(hashes []uint64) map[int]int {
	counts := make(map[int]int)
	var alive map[int]bool
	for i, h := range hashes {
		e := x.entries[h]
		if e == nil {
			break
		}
		if i == 0 {
			alive = make(map[int]bool, len(e.insts))
			for inst := range e.insts {
				alive[inst] = true
				counts[inst] = 1
			}
		} else {
			for inst := range alive {
				if _, ok := e.insts[inst]; ok {
					counts[inst]++
				} else {
					delete(alive, inst)
				}
			}
		}
		if len(alive) == 0 {
			break
		}
	}
	return counts
}

// TestKVIndexMatchesReference drives the index and the two-map reference
// through the same random Add sequences — a capacity small enough that
// most Adds evict, prefixes shared across groups and instances, ties in
// lastUse — and requires equal Len and equal Matches scores for every
// instance after every Add.
func TestKVIndexMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		rng := mathx.NewRNG(seed)
		const instances = 9
		x := NewKVIndex(48)
		ref := &refIndex{capacity: 48, entries: map[uint64]*refEntry{}}
		req := func() workload.Request {
			return workload.Request{
				ID:          rng.Intn(40) + 1,
				PromptLen:   64 * (1 + rng.Intn(12)),
				PrefixGroup: rng.Intn(5),
				PrefixLen:   64 * rng.Intn(10),
			}
		}
		for step := 0; step < 2000; step++ {
			r := req()
			hashes := r.BlockHashes(64)
			n := rng.Intn(len(hashes) + 1)
			inst, nowUs := rng.Intn(instances), float64(step/3) // every third step ties
			x.Add(hashes[:n], inst, nowUs)
			ref.add(hashes[:n], inst, nowUs)
			if x.Len() != len(ref.entries) {
				t.Fatalf("seed %d step %d: Len %d, reference %d", seed, step, x.Len(), len(ref.entries))
			}
			probe := req().BlockHashes(64)
			got, want := x.Matches(probe), ref.matches(probe)
			for i := 0; i < instances; i++ {
				g := 0
				if i < len(got) {
					g = got[i]
				}
				if g != want[i] {
					t.Fatalf("seed %d step %d: instance %d scores %d, reference %d", seed, step, i, g, want[i])
				}
			}
		}
	}
}

func TestKVIndexMatchesZeroAllocs(t *testing.T) {
	x := NewKVIndex(0)
	r := workload.Request{ID: 1, PromptLen: 1024, PrefixGroup: 2, PrefixLen: 768}
	hashes := r.BlockHashes(64)
	for inst := 0; inst < 64; inst++ {
		x.Add(hashes[:inst%len(hashes)+1], inst, float64(inst))
	}
	if allocs := testing.AllocsPerRun(100, func() { x.Matches(hashes) }); allocs != 0 {
		t.Fatalf("Matches allocated %v per call", allocs)
	}
}
