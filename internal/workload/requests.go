package workload

import (
	"diffkv/internal/mathx"
)

// Request is one serving request: when it arrives and how many tokens it
// carries.
type Request struct {
	ID        int
	ArrivalUs float64 // arrival time in simulated microseconds
	PromptLen int
	GenLen    int
	// PrefixGroup identifies a shared-prompt-prefix group (0 = unique
	// prompt): requests in the same group share their first PrefixLen
	// prompt tokens, e.g. a common system prompt or few-shot template.
	PrefixGroup int
	// PrefixLen is the number of leading prompt tokens shared with the
	// group (<= PromptLen; 0 when PrefixGroup is 0).
	PrefixLen int
}

// BlockHashes digests the request's prompt content into chained per-block
// hashes, llm-d prefixhashtable style: block b's hash folds in block b-1's,
// so two prompts produce identical hash prefixes exactly as long as their
// token prefixes agree. Content is identified by PrefixGroup for shared
// blocks and by request ID for the unique tail. blockSize <= 0 selects 64.
func (r Request) BlockHashes(blockSize int) []uint64 {
	if blockSize <= 0 {
		blockSize = 64
	}
	n := (r.PromptLen + blockSize - 1) / blockSize
	out := make([]uint64, 0, n)
	h := uint64(14695981039346656037) // FNV-64 offset basis
	for b := 0; b < n; b++ {
		var ident uint64
		if r.PrefixGroup != 0 && (b+1)*blockSize <= r.PrefixLen {
			ident = uint64(r.PrefixGroup)<<1 | 1
		} else {
			ident = uint64(r.ID) << 1
		}
		h = fnvFold(fnvFold(h, ident), uint64(b))
		out = append(out, h)
	}
	return out
}

// BlockHashBasis is a block-hash chain's value before block 0, the FNV-64
// offset basis.
const BlockHashBasis uint64 = 14695981039346656037

// BlockHash extends a block-hash chain by block b: given prev, block
// b-1's hash (BlockHashBasis for block 0), it returns
// BlockHashes(blockSize)[b], one block at a time for callers that hash
// only what they read. blockSize must be positive.
func (r Request) BlockHash(prev uint64, b, blockSize int) uint64 {
	ident := uint64(r.ID) << 1
	if r.PrefixGroup != 0 && (b+1)*blockSize <= r.PrefixLen {
		ident = uint64(r.PrefixGroup)<<1 | 1
	}
	return fnvFold(fnvFold(prev, ident), uint64(b))
}

// SharedBlocks counts the leading blocks of BlockHashes(blockSize) that
// hash the prefix group instead of the request: the blocks wholly inside
// the shared prefix. Their hashes depend only on (PrefixGroup, block
// index, blockSize). blockSize must be positive.
func (r Request) SharedBlocks(blockSize int) int {
	if r.PrefixGroup == 0 || r.PrefixLen < blockSize {
		return 0
	}
	return min(r.PrefixLen/blockSize, (r.PromptLen+blockSize-1)/blockSize)
}

// fnvFold mixes one 64-bit word into a running FNV-1a style hash.
func fnvFold(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}

// RequestGen samples serving requests from a benchmark profile: prompt and
// generation lengths are log-normal around the profile's nominal lengths
// (generation capped at MaxGenLen, the serving engine's generation limit).
type RequestGen struct {
	Bench     *Benchmark
	MaxGenLen int
	rng       *mathx.RNG
	nextID    int
}

// NewRequestGen builds a generator with the given cap and seed.
func NewRequestGen(b *Benchmark, maxGenLen int, seed uint64) *RequestGen {
	if maxGenLen <= 0 {
		maxGenLen = 4096
	}
	return &RequestGen{Bench: b, MaxGenLen: maxGenLen, rng: mathx.NewRNG(seed)}
}

// sampleLen draws a log-normal length around mean with ~35% dispersion.
func (g *RequestGen) sampleLen(mean int) int {
	v := int(float64(mean) * g.rng.LogNorm(0, 0.35))
	if v < 16 {
		v = 16
	}
	return v
}

// Next samples one request arriving at the given time.
func (g *RequestGen) Next(arrivalUs float64) Request {
	g.nextID++
	gen := g.sampleLen(g.Bench.GenLen)
	if gen > g.MaxGenLen {
		gen = g.MaxGenLen
	}
	return Request{
		ID:        g.nextID,
		ArrivalUs: arrivalUs,
		PromptLen: g.sampleLen(g.Bench.PromptLen),
		GenLen:    gen,
	}
}

// Batch samples n requests all arriving at time 0 (closed-loop throughput
// experiments, Fig. 17).
func (g *RequestGen) Batch(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		out[i] = g.Next(0)
	}
	return out
}

// CoTBatch samples n requests whose generations run near the generation
// limit — the paper's Fig. 17 setting ("MATH elicits chain-of-thought
// reasoning and typically leads to long generations reaching the
// specified limit").
func (g *RequestGen) CoTBatch(n int) []Request {
	out := make([]Request, n)
	for i := range out {
		g.nextID++
		out[i] = Request{
			ID:        g.nextID,
			PromptLen: g.sampleLen(g.Bench.PromptLen),
			GenLen:    int(float64(g.MaxGenLen) * (0.7 + 0.3*g.rng.Float64())),
		}
	}
	return out
}

// Poisson samples requests with exponential inter-arrival times at
// ratePerSec for a horizon of seconds (open-loop dynamic workloads,
// Fig. 16).
func (g *RequestGen) Poisson(ratePerSec float64, seconds float64) []Request {
	var out []Request
	t := 0.0
	horizon := seconds * 1e6
	for {
		t += g.rng.Exp(ratePerSec) * 1e6
		if t > horizon {
			return out
		}
		out = append(out, g.Next(t))
	}
}

// PrefixConfig parameterizes shared-prefix sampling: production traffic
// concentrates on a handful of system prompts / few-shot templates, which
// a prefix-affinity router can exploit.
type PrefixConfig struct {
	// Groups is the number of distinct shared prefixes in the workload.
	Groups int `json:"groups"`
	// PrefixLen is the token length of each shared prefix.
	PrefixLen int `json:"prefix_len"`
	// SharedFrac is the probability a request belongs to some group
	// (the rest carry fully unique prompts).
	SharedFrac float64 `json:"shared_frac"`
}

// NextShared samples one request; with probability SharedFrac it joins a
// uniformly drawn prefix group, its prompt beginning with the group's
// PrefixLen-token shared prefix followed by a unique tail.
func (g *RequestGen) NextShared(arrivalUs float64, pc PrefixConfig) Request {
	r := g.Next(arrivalUs)
	if pc.Groups > 0 && pc.PrefixLen > 0 && g.rng.Float64() < pc.SharedFrac {
		r.PrefixGroup = 1 + g.rng.Intn(pc.Groups)
		r.PrefixLen = pc.PrefixLen
		if r.PromptLen < pc.PrefixLen+32 {
			// always leave a unique tail after the shared prefix
			r.PromptLen = pc.PrefixLen + 32
		}
	}
	return r
}

// PoissonShared samples Poisson arrivals like Poisson, drawing each
// request's prefix-group membership from pc.
func (g *RequestGen) PoissonShared(ratePerSec, seconds float64, pc PrefixConfig) []Request {
	var out []Request
	t := 0.0
	horizon := seconds * 1e6
	for {
		t += g.rng.Exp(ratePerSec) * 1e6
		if t > horizon {
			return out
		}
		out = append(out, g.NextShared(t, pc))
	}
}
