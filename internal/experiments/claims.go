package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// A Verdict is one of the paper's claims checked against one run's tables.
type Verdict struct {
	Claim string
	// Margin is how far the claim clears its bound, in the unit of the
	// cells it reads (accuracy points, percentage points of memory, ×).
	// A claim holds at a margin of zero or more, or above zero where its
	// bound is strict.
	Margin float64
	Held   bool
	// Err is set, and Held false, when a cell the claim reads is missing
	// or not a number.
	Err error
}

// The paper's near-lossless compression range, 2.7-5.7× (DESIGN.md §6):
// DiffKV keeps between 1/5.7 and 1/2.7 of the FP16 KV cache, in percent.
const (
	memBandLo = 100 / 5.7
	memBandHi = 100 / 2.7
)

// verdicts collects the claims of one harness.
type verdicts []Verdict

// add records claim with its margin. Cells carry one or two decimals, so
// the margin is rounded to 1e-9 first: a tie at the bound is a tie, not a
// float64 rounding error either way.
func (v *verdicts) add(claim string, margin float64, strict bool, err error) {
	if err != nil {
		*v = append(*v, Verdict{Claim: claim, Err: err})
		return
	}
	margin = math.Round(margin*1e9) / 1e9
	if margin == 0 {
		margin = 0 // drop the sign of a negative zero
	}
	*v = append(*v, Verdict{Claim: claim, Margin: margin, Held: margin > 0 || !strict && margin == 0})
}

// memInBand records that DiffKV's memory percentage mem lies inside the
// near-lossless band.
func (v *verdicts) memInBand(subject string, mem float64, err error) {
	v.add(fmt.Sprintf("%s: DiffKV memory inside %.1f-%.1f%% (1/5.7-1/2.7 of FP16)", subject, memBandLo, memBandHi),
		min(mem-memBandLo, memBandHi-mem), false, err)
}

// within1 records that b is within one accuracy point of a.
func (v *verdicts) within1(claim string, a, b float64, err error) {
	v.add(claim, 1-math.Abs(a-b), false, err)
}

// subject names one row of t in a claim.
func subject(t *Table, row string) string { return t.Title + ", " + row }

// table1Claims: DiffKV is near-lossless on every row of Table 1, inside
// the 2.7-5.7× compression band.
func table1Claims(tables []*Table) []Verdict {
	var v verdicts
	for _, t := range tables {
		for _, r := range t.Rows {
			s := subject(t, r[0])
			fp16, errF := t.Num(r[0], "FP16")
			acc, mem, errD := t.AccMem(r[0], "DiffKV(mem)")
			v.within1(s+": DiffKV within 1 point of FP16", fp16, acc, errors.Join(errF, errD))
			v.memInBand(s, mem, errD)
		}
	}
	return v
}

// table3Claims: thinking benchmarks degrade first — DiffKV loses at least
// as much accuracy on GPQA and AIME24 as on MATH — inside the same memory
// band.
func table3Claims(tables []*Table) []Verdict {
	var v verdicts
	loss := func(t *Table, bench string) (float64, error) {
		fp16, errF := t.Num(bench, "FP16")
		acc, _, errD := t.AccMem(bench, "DiffKV(mem)")
		return fp16 - acc, errors.Join(errF, errD)
	}
	for _, t := range tables {
		base, errM := loss(t, "MATH")
		for _, bench := range []string{"GPQA", "AIME24"} {
			l, err := loss(t, bench)
			v.add(fmt.Sprintf("%s: DiffKV loses at least as much on %s as on MATH", t.Title, bench),
				l-base, false, errors.Join(errM, err))
		}
		for _, r := range t.Rows {
			_, mem, err := t.AccMem(r[0], "DiffKV(mem)")
			v.memInBand(subject(t, r[0]), mem, err)
		}
	}
	return v
}

// fig8Claims: K8V4 ≈ FP16 > K4V2, and keys need more bits than values —
// KxVy ≥ KyVx — on every model.
func fig8Claims(tables []*Table) []Verdict {
	var v verdicts
	for _, t := range tables {
		for _, r := range t.Rows {
			s := subject(t, r[0])
			acc := map[string]float64{}
			var err error
			for _, col := range []string{"FP16", "K8V4", "K4V8", "K4V2", "K2V4"} {
				x, e := t.Num(r[0], col)
				acc[col], err = x, errors.Join(err, e)
			}
			v.within1(s+": K8V4 within 1 point of FP16", acc["FP16"], acc["K8V4"], err)
			v.add(s+": K8V4 above K4V2", acc["K8V4"]-acc["K4V2"], true, err)
			for _, pair := range [][2]string{{"K8V4", "K4V8"}, {"K4V2", "K2V4"}} {
				v.add(fmt.Sprintf("%s: %s ≥ %s", s, pair[0], pair[1]), acc[pair[0]]-acc[pair[1]], false, err)
			}
		}
	}
	return v
}

// fig9Claims: a shared significance threshold (dynamic per-head budgets)
// is at least as accurate as a uniform per-head budget at every pruned
// fraction, and strictly more accurate at the deepest one, where the
// sweep shows the gap.
func fig9Claims(tables []*Table) []Verdict {
	var v verdicts
	for _, t := range tables {
		for i, r := range t.Rows {
			s := subject(t, r[0])
			dyn, errD := t.Num(r[0], "dynamic-acc")
			stat, errS := t.Num(r[0], "static-acc")
			err := errors.Join(errD, errS)
			v.add(s+": dynamic ≥ static", dyn-stat, false, err)
			if i == len(t.Rows)-1 {
				v.add(s+": dynamic > static at the deepest fraction", dyn-stat, true, err)
			}
		}
	}
	return v
}

// fig13Claims: parallel compaction is at least two orders of magnitude
// faster than on-CPU management, on every row of Fig 13a.
func fig13Claims(tables []*Table) []Verdict {
	var v verdicts
	for _, t := range tables {
		if !strings.HasPrefix(t.Title, "Fig 13a") {
			continue
		}
		j, err := t.column("speedup")
		for _, r := range t.Rows {
			claim := fmt.Sprintf("%s, %s batch %s: speedup ≥ 100x", t.Title, r[0], r[1])
			if err != nil {
				v.add(claim, 0, false, err)
				continue
			}
			sp, err := parseNum(r[j])
			v.add(claim, sp-100, false, err)
		}
	}
	return v
}
