package cluster

import (
	"fmt"

	"diffkv/internal/disagg"
	"diffkv/internal/registry"
	"diffkv/internal/workload"
)

// Snapshot is the router's view of one serving instance at dispatch time.
type Snapshot struct {
	ID int
	// QueueDepth counts submitted requests awaiting admission.
	QueueDepth int
	// Running counts admitted, in-flight requests.
	Running int
	// ResidentTokens sums the cached KV tokens of running sequences.
	ResidentTokens int
	// SwappedTokens sums the KV tokens of sequences the instance has
	// swapped out to its host tier — latent load that will reclaim GPU
	// pages before new admissions, which offload-aware policies weigh.
	SwappedTokens int
	// Degraded marks an instance in a transient fault-injection
	// slowdown: routable, but load-aware policies down-weight it.
	// Crashed (down) instances never appear in a snapshot at all.
	Degraded bool
	// Role is the instance's disaggregation pool role (mixed without
	// disaggregation). Dispatch snapshots never contain decode-pool
	// instances — those only adopt shipped prefills — so role-aware
	// policies choose between prefill and mixed here.
	Role disagg.Role
}

// Policy picks a target instance for each request. Pick receives only
// routable snapshots (admission control filters saturated instances first)
// in ascending ID order, and the slice is never empty; it returns the
// chosen Snapshot.ID. The slice is the cluster's live routable view: Pick
// must not modify it, and must not keep it past the call. Policies must
// be deterministic: equal inputs yield equal picks.
type Policy interface {
	Name() string
	Pick(req workload.Request, snaps []Snapshot) int
}

// loadRanked is implemented by the builtin least-loaded policy. New
// hands it the cluster's leastOfView, which answers for the routable view
// from a heap touch keeps, so a pick over that view reads the heap's top
// instead of scanning it. Prefix-affinity's fallback scans: that policy
// walks the whole view for matches anyway, and keeping the heap for it
// measured no faster.
type loadRanked interface {
	rankLoads(least func(snaps []Snapshot) (int, bool))
}

// observer is implemented by policies that learn from dispatch decisions
// (prefix-affinity records which instance now holds a prompt's KV blocks).
type observer interface {
	Observe(req workload.Request, inst int, nowUs float64)
}

// Routing policy names.
const (
	PolicyRoundRobin     = "round-robin"
	PolicyLeastLoaded    = "least-loaded"
	PolicyPrefixAffinity = "prefix-affinity"
	PolicyDisaggAware    = "disagg-aware"
)

// PolicyFactory builds a fresh routing policy instance for one cluster.
// Policies are stateful (round-robin cursors, prefix indexes), so the
// registry holds factories, not instances: every Cluster gets its own.
type PolicyFactory func(cfg Config) (Policy, error)

// policies is the routing-policy registry; registration order defines
// the order Policies reports (builtins first, then third-party).
var policies = registry.New[PolicyFactory]("cluster", "routing policy")

// RegisterPolicy adds a routing policy factory under name. Names must be
// non-empty and unique.
func RegisterPolicy(name string, f PolicyFactory) error {
	if f == nil {
		return fmt.Errorf("cluster: nil PolicyFactory for %q", name)
	}
	return policies.Register(name, f)
}

func mustRegisterPolicy(name string, f PolicyFactory) {
	if err := RegisterPolicy(name, f); err != nil {
		panic(err)
	}
}

// Policies lists registered routing policy names in registration order —
// derived from the registry, never hard-coded.
func Policies() []string { return policies.Names() }

func init() {
	mustRegisterPolicy(PolicyRoundRobin, func(Config) (Policy, error) {
		return NewRoundRobin(), nil
	})
	mustRegisterPolicy(PolicyLeastLoaded, func(Config) (Policy, error) {
		return NewLeastLoaded(), nil
	})
	mustRegisterPolicy(PolicyPrefixAffinity, func(cfg Config) (Policy, error) {
		return NewPrefixAffinity(cfg.BlockTokens, cfg.AffinityQueueBound, cfg.IndexCapacity), nil
	})
	mustRegisterPolicy(PolicyDisaggAware, func(Config) (Policy, error) {
		return NewDisaggAware(), nil
	})
}

// disaggAware routes by pool role: fresh prompts go least-loaded across
// the prefill pool (mixed instances only absorb overflow once every
// prefill instance carries more load), and shipped prefills go
// least-loaded across the decode pool with the same mixed-overflow
// rule. On a non-disaggregated cluster every instance is mixed and the
// policy degenerates to least-loaded.
type disaggAware struct{}

// NewDisaggAware returns the disagg-aware routing policy.
func NewDisaggAware() Policy { return disaggAware{} }

func (disaggAware) Name() string { return PolicyDisaggAware }

func (disaggAware) Pick(_ workload.Request, snaps []Snapshot) int {
	return pickByRole(snaps, disagg.RolePrefill)
}

// PickDecode implements the decode-side selection for shipped prefills
// (the coordinator's decodePicker hook).
func (disaggAware) PickDecode(_ workload.Request, snaps []Snapshot) int {
	return pickByRole(snaps, disagg.RoleDecode)
}

// pickByRole is least-loaded restricted to the wanted pool, falling
// back to the least-loaded instance of any other role only when the
// wanted pool is absent from the snapshot set (saturated or not
// configured).
func pickByRole(snaps []Snapshot, want disagg.Role) int {
	var best *Snapshot
	bestWant := false
	for k := range snaps {
		s := &snaps[k]
		w := s.Role == want
		if best == nil || (w && !bestWant) || (w == bestWant && less(s, best)) {
			best, bestWant = s, w
		}
	}
	return best.ID
}

// roundRobin cycles through instances in ID order, skipping over instances
// the admission filter removed.
type roundRobin struct {
	last int
}

// NewRoundRobin returns the round-robin routing policy.
func NewRoundRobin() Policy { return &roundRobin{last: -1} }

func (p *roundRobin) Name() string { return PolicyRoundRobin }

func (p *roundRobin) Pick(_ workload.Request, snaps []Snapshot) int {
	// smallest ID strictly after the previous pick, wrapping to the
	// smallest overall
	best, wrap := -1, -1
	for _, s := range snaps {
		if s.ID > p.last && (best == -1 || s.ID < best) {
			best = s.ID
		}
		if wrap == -1 || s.ID < wrap {
			wrap = s.ID
		}
	}
	if best == -1 {
		best = wrap
	}
	p.last = best
	return best
}

// leastLoaded routes to the instance with the fewest in-flight requests,
// breaking ties by resident KV tokens, then by lowest instance ID — the
// last rule makes tie-breaking deterministic.
type leastLoaded struct {
	// least is the cluster's leastOfView once New has bound it
	// (loadRanked). It answers only when snaps is the cluster's routable
	// view itself; unbound, or for any other slice, Pick scans.
	least func(snaps []Snapshot) (int, bool)
}

// NewLeastLoaded returns the least-loaded routing policy.
func NewLeastLoaded() Policy { return &leastLoaded{} }

func (*leastLoaded) Name() string { return PolicyLeastLoaded }

func (p *leastLoaded) rankLoads(least func([]Snapshot) (int, bool)) { p.least = least }

func (p *leastLoaded) Pick(_ workload.Request, snaps []Snapshot) int {
	if p.least != nil {
		if id, ok := p.least(snaps); ok {
			return id
		}
	}
	return pickLeast(snaps)
}

// pickLeast scans snaps for the least-loaded instance under less.
func pickLeast(snaps []Snapshot) int {
	best := &snaps[0]
	for k := range snaps[1:] {
		if s := &snaps[k+1]; less(s, best) {
			best = s
		}
	}
	return best.ID
}

// less orders snapshots by load: (queued+running, resident+swapped tokens,
// ID). Swapped tokens count as load — a host-resident sequence reclaims
// GPU pages before any new admission runs — so the policy is offload-aware
// without a separate mode. A degraded instance's load is inflated (4x+2),
// so it only wins against healthy instances carrying several times its
// queue: graceful degradation rather than exclusion.
func less(a, b *Snapshot) bool {
	la, lb := loadOf(a), loadOf(b)
	if la != lb {
		return la < lb
	}
	ta, tb := a.ResidentTokens+a.SwappedTokens, b.ResidentTokens+b.SwappedTokens
	if ta != tb {
		return ta < tb
	}
	return a.ID < b.ID
}

// loadOf is the in-flight load a snapshot contributes to routing, with
// the degraded penalty applied.
func loadOf(s *Snapshot) int {
	l := s.QueueDepth + s.Running
	if s.Degraded {
		l = l*4 + 2
	}
	return l
}

// prefixAffinity routes requests sharing a prompt prefix to the instance
// that already holds those KV blocks (per the KVIndex), falling back to
// least-loaded when no instance matches or the affine instance's queue is
// saturated — the llm-d cache-aware routing scheme.
type prefixAffinity struct {
	index      *KVIndex
	blockTok   int
	queueBound int
	fallback   Policy
	// chains memoizes each prefix group's shared-block hash chain, extended
	// on demand: a shared block's chained hash depends only on the group
	// and the block index, so each is hashed once per policy, not once per
	// dispatch
	chains map[int][]uint64
}

// chainGroups bounds the groups chains holds: past it the memo starts
// over (the hashes are the same either way; only work is redone).
const chainGroups = 4096

// NewPrefixAffinity returns the prefix-affinity policy: blockTokens is the
// index granularity (<=0 selects 64), queueBound is the affine instance's
// queue depth beyond which the policy falls back to least-loaded (<=0
// selects 8), indexCapacity bounds the block index (<=0 selects 32768).
func NewPrefixAffinity(blockTokens, queueBound, indexCapacity int) Policy {
	if blockTokens <= 0 {
		blockTokens = 64
	}
	if queueBound <= 0 {
		queueBound = 8
	}
	return &prefixAffinity{
		index:      NewKVIndex(indexCapacity),
		blockTok:   blockTokens,
		queueBound: queueBound,
		fallback:   NewLeastLoaded(),
		chains:     make(map[int][]uint64),
	}
}

func (p *prefixAffinity) Name() string { return PolicyPrefixAffinity }

// shared returns the hashes of req's shared blocks, the leading part of
// req.BlockHashes(p.blockTok), from its group's memoized chain.
func (p *prefixAffinity) shared(req workload.Request) []uint64 {
	n := req.SharedBlocks(p.blockTok)
	if n == 0 {
		return nil
	}
	chain, ok := p.chains[req.PrefixGroup]
	if len(chain) >= n {
		return chain[:n]
	}
	if !ok && len(p.chains) >= chainGroups {
		clear(p.chains)
	}
	h := workload.BlockHashBasis
	if len(chain) > 0 {
		h = chain[len(chain)-1]
	}
	for b := len(chain); b < n; b++ {
		h = req.BlockHash(h, b, p.blockTok)
		chain = append(chain, h)
	}
	p.chains[req.PrefixGroup] = chain
	return chain
}

// matches is p.index.Matches(req.BlockHashes(p.blockTok)), hashing only
// the blocks the scan reaches: the shared blocks come from the memo, and
// the unique tail, which Observe never indexes, is hashed block by block
// until the scan ends, in practice at its first block.
func (p *prefixAffinity) matches(req workload.Request) []int {
	x := p.index
	counts := x.startMatch()
	shared := p.shared(req)
	for i, h := range shared {
		if !x.matchBlock(i, h) {
			return counts
		}
	}
	h := workload.BlockHashBasis
	if len(shared) > 0 {
		h = shared[len(shared)-1]
	}
	for b, n := len(shared), (req.PromptLen+p.blockTok-1)/p.blockTok; b < n; b++ {
		h = req.BlockHash(h, b, p.blockTok)
		if !x.matchBlock(b, h) {
			break
		}
	}
	return counts
}

func (p *prefixAffinity) Pick(req workload.Request, snaps []Snapshot) int {
	matches := p.matches(req)
	best, bestScore := -1, 0
	for _, s := range snaps {
		if s.ID >= len(matches) || s.QueueDepth >= p.queueBound {
			continue // an ID beyond the slice holds no indexed block
		}
		// snaps arrive in ascending ID order, so strict > keeps the
		// lowest-ID instance among equal scores (and skips score 0)
		if score := matches[s.ID]; score > bestScore {
			best, bestScore = s.ID, score
		}
	}
	if best >= 0 {
		return best
	}
	return p.fallback.Pick(req, snaps)
}

func (p *prefixAffinity) Observe(req workload.Request, inst int, nowUs float64) {
	// Only shared-prefix blocks are worth indexing: unique-tail block
	// hashes chain the request ID, so no future request can ever match
	// them — indexing them would only churn the LRU.
	if shared := p.shared(req); len(shared) > 0 {
		p.index.Add(shared, inst, nowUs)
	}
}

// newPolicy builds a routing policy from a cluster Config via the
// registry ("" selects round-robin).
func newPolicy(cfg Config) (Policy, error) {
	name := cfg.Policy
	if name == "" {
		name = PolicyRoundRobin
	}
	f, err := policies.Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(cfg)
}
