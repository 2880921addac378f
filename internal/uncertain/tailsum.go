package uncertain

import (
	"math/bits"
	"slices"
)

// TailSum maintains T(t) = Σ_{f ∈ U} (1 − F_f(t)) over a mutable set U of
// uncertain tuples. It is the Bonferroni (union-bound) counterpart of
// JointCDF: by Boole's inequality,
//
//	Pr(∃ f ∈ U: S_f > t) ≤ T(t)
//
// holds under arbitrary dependence between the tuples, so
//
//	p̂ ≥ 1 − T(S_k)
//
// is a valid (conservative) confidence lower bound even when the x-tuple
// independence assumption of §2 fails — which it does for overlapping
// sliding windows, whose scores share frames. Phase 2 run with this bound
// keeps its guarantee at the cost of extra cleaning.
//
// The accumulator mirrors JointCDF's layout: per-level sums over the
// relation's level range, O(support + range-below-Min) add/remove, O(1)
// queries. Unlike JointCDF no log-space care is needed — T is a sum, not a
// product — but removal must reverse exactly what insertion added, so
// contributions are recomputed from the member's distribution on both
// sides.
//
// As with JointCDF, each level's sum is independent of the covered
// range: an accumulator over [L, hi] answers At and AtExcluding with
// the bits of one over [lo, hi], lo < L, at every t ≥ L, after any
// sequence of removals — which lets Phase 2 build it from a run's
// starting S_k, since a run reads only levels at or above it.
type TailSum struct {
	lo, hi int
	// sum[i] = Σ (1 − F_f(lo+i)) over members.
	sum []float64
	n   int
}

// NewTailSum creates an accumulator covering levels [lo, hi].
func NewTailSum(lo, hi int) *TailSum {
	if hi < lo {
		hi = lo
	}
	return &TailSum{
		lo:  lo,
		hi:  hi,
		sum: make([]float64, hi-lo+1),
	}
}

// NewTailSumFromRelation builds T over the tuples rel[i] whose
// bit i is set in live (bit i%64 of word i/64), in position order,
// covering levels [lo, hi]. It visits the set bits only.
func NewTailSumFromRelation(rel Relation, live []uint64, lo, hi int) *TailSum {
	ts := NewTailSum(lo, hi)
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			ts.Add(rel[w*64+bits.TrailingZeros64(word)].Dist)
		}
	}
	return ts
}

// Clone returns an independent copy of the accumulator: O(levels),
// whatever its member count.
func (ts *TailSum) Clone() *TailSum {
	return &TailSum{lo: ts.lo, hi: ts.hi, sum: slices.Clone(ts.sum), n: ts.n}
}

// Lo returns the lowest covered level.
func (ts *TailSum) Lo() int { return ts.lo }

// Hi returns the highest covered level.
func (ts *TailSum) Hi() int { return ts.hi }

// Len returns the number of member tuples.
func (ts *TailSum) Len() int { return ts.n }

// Add inserts a tuple's distribution into the sum.
func (ts *TailSum) Add(d Dist) { ts.apply(d, +1) }

// Remove deletes a tuple's distribution from the sum. The distribution
// must have been added before.
func (ts *TailSum) Remove(d Dist) { ts.apply(d, -1) }

func (ts *TailSum) apply(d Dist, sign int) {
	ts.n += sign
	// Levels below d.Min: 1 − F == 1.
	zHi := min(d.Min-1, ts.hi)
	for t := ts.lo; t <= zHi; t++ {
		ts.sum[t-ts.lo] += float64(sign)
	}
	// Levels in [d.Min, d.Max−1]: 0 < 1 − F < 1.
	from := max(d.Min, ts.lo)
	to := min(d.Max()-1, ts.hi)
	for t := from; t <= to; t++ {
		ts.sum[t-ts.lo] += float64(sign) * (1 - d.CDF(t))
	}
	// Levels ≥ d.Max: 1 − F == 0, no contribution.
}

// At returns T(t) = Σ (1 − F_f(t)), clamped below at 0 to absorb removal
// round-off.
func (ts *TailSum) At(t int) float64 {
	if ts.n == 0 || t >= ts.hi {
		return 0
	}
	if t < ts.lo {
		return float64(ts.n)
	}
	s := ts.sum[t-ts.lo]
	if s < 0 {
		return 0
	}
	return s
}

// AtExcluding returns Σ_{g ∈ U \ {f}} (1 − F_g(t)) for a member f with
// distribution d.
func (ts *TailSum) AtExcluding(d Dist, t int) float64 {
	if ts.n <= 1 {
		return 0
	}
	if t >= ts.hi {
		return 0
	}
	if t < ts.lo {
		return float64(ts.n - 1)
	}
	s := ts.sum[t-ts.lo]
	if t < d.Min {
		s--
	} else if t < d.Max() {
		s -= 1 - d.CDF(t)
	}
	if s < 0 {
		return 0
	}
	return s
}
