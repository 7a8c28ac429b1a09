package policy

import "diffkv/internal/kvcache"

// SigTracker maintains running-average significance scores per token
// position: the mean attention a token has received across generation
// steps, max-aggregated over the query heads of its GQA group (the caller
// performs the max before calling Add).
type SigTracker struct {
	sum []float64
	cnt []int
}

// NewSigTracker creates a tracker sized for maxPos positions (grows on
// demand).
func NewSigTracker(maxPos int) *SigTracker {
	if maxPos < 1 {
		maxPos = 1
	}
	return &SigTracker{sum: make([]float64, maxPos), cnt: make([]int, maxPos)}
}

func (s *SigTracker) grow(pos int) {
	for pos >= len(s.sum) {
		s.sum = append(s.sum, 0)
		s.cnt = append(s.cnt, 0)
	}
}

// Add folds one observed attention score for the token at pos.
func (s *SigTracker) Add(pos int, score float32) {
	s.grow(pos)
	s.sum[pos] += float64(score)
	s.cnt[pos]++
}

// Avg returns the token's running-average significance (0 when never
// observed).
func (s *SigTracker) Avg(pos int) float32 {
	if pos < 0 || pos >= len(s.sum) || s.cnt[pos] == 0 {
		return 0
	}
	return float32(s.sum[pos] / float64(s.cnt[pos]))
}

// Seed installs a prompt-phase significance estimate.
func (s *SigTracker) Seed(pos int, score float32) {
	s.grow(pos)
	s.sum[pos] = float64(score)
	s.cnt[pos] = 1
}

// WindowToken is an uncompressed token inside the recent window: the paper
// keeps the W most recent tokens at full precision to avoid premature
// compression (§4); attention reads them alongside the compressed cache.
type WindowToken struct {
	Key []float32
	Val []float32
	Pos int32
}

// GenPolicy drives generation-phase compression for one (sequence, KV-head)
// pair: it owns the recent window and the significance tracker and applies
// Algorithm 1 each step.
//
// The window is kept in a fixed backing array with a moving head index:
// popping the oldest token advances the head, and when the backing array is
// exhausted the live region is shifted down in place, so the steady state
// allocates nothing.
type GenPolicy struct {
	P       Params
	Sig     *SigTracker
	win     []WindowToken
	winHead int
	keyBuf  []float32
	valBuf  []float32
}

// NewGenPolicy creates a generation policy with validated parameters for a
// head of dimension dim.
func NewGenPolicy(p Params, dim, expectLen int) (*GenPolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &GenPolicy{
		P:      p,
		Sig:    NewSigTracker(expectLen),
		win:    make([]WindowToken, 0, p.Window+1),
		keyBuf: make([]float32, dim),
		valBuf: make([]float32, dim),
	}, nil
}

// Window exposes the uncompressed recent tokens for the attention kernel.
func (g *GenPolicy) Window() []WindowToken { return g.win[g.winHead:] }

// pushWindow appends a token, compacting the backing array in place when
// its tail is exhausted (zero allocations once warm).
func (g *GenPolicy) pushWindow(t WindowToken) {
	if g.winHead > 0 && len(g.win) == cap(g.win) {
		n := copy(g.win, g.win[g.winHead:])
		g.win = g.win[:n]
		g.winHead = 0
	}
	g.win = append(g.win, t)
}

// popWindow removes and returns the oldest window token.
func (g *GenPolicy) popWindow() WindowToken {
	t := g.win[g.winHead]
	g.win[g.winHead] = WindowToken{} // release key/val references
	g.winHead++
	if g.winHead == len(g.win) {
		g.win = g.win[:0]
		g.winHead = 0
	}
	return t
}

// refreshScores pushes current running averages into the page score
// segments so victim selection sees up-to-date significance, iterating
// pages' slot ranges directly (no per-token callback).
func (g *GenPolicy) refreshScores(hc *kvcache.HeadCache) {
	for _, level := range [2]kvcache.Level{kvcache.LevelHi, kvcache.LevelLo} {
		for i, n := 0, hc.PageCount(level); i < n; i++ {
			p := hc.PageAt(level, i)
			pos := p.Positions()
			scores := p.Scores()
			for s := range scores {
				scores[s] = g.Sig.Avg(int(pos[s]))
			}
		}
	}
}

// Step admits a newly generated token and, once the window is full,
// compresses the departing token via Algorithm 1 (scores are normalized,
// so "≥ αh" below is the paper's "≥ αh/N"):
//
//	if Score(tc) ≥ αh: tc → KVh; victim of KVh may be downgraded to KVl
//	                   or pruned
//	else if Score(tc) ≥ αl: tc → KVl; victim of KVl may be pruned
//	else: tc pruned
func (g *GenPolicy) Step(hc *kvcache.HeadCache, key, val []float32, pos int32) error {
	g.pushWindow(WindowToken{Key: key, Val: val, Pos: pos})
	if len(g.Window()) <= g.P.Window {
		return nil
	}
	tc := g.popWindow()
	g.refreshScores(hc)

	score := g.Sig.Avg(int(tc.Pos))
	switch classify(float64(score), g.P) {
	case LevelHigh:
		if err := hc.AppendToken(kvcache.LevelHi, tc.Key, tc.Val, score, tc.Pos); err != nil {
			return err
		}
		ref, vScore, ok := hc.MinScore(kvcache.LevelHi)
		if !ok {
			break
		}
		switch classify(float64(vScore), g.P) {
		case LevelHigh:
			// still significant: stays
		case LevelLow:
			return hc.Downgrade(ref, g.keyBuf, g.valBuf)
		default:
			return hc.RemoveToken(ref)
		}
	case LevelLow:
		if err := hc.AppendToken(kvcache.LevelLo, tc.Key, tc.Val, score, tc.Pos); err != nil {
			return err
		}
		ref, vScore, ok := hc.MinScore(kvcache.LevelLo)
		if ok && classify(float64(vScore), g.P) == LevelPruned {
			return hc.RemoveToken(ref)
		}
	case LevelPruned:
		// dropped outright
	}
	return nil
}
