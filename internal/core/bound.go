package core

import (
	"fmt"

	"github.com/everest-project/everest/internal/uncertain"
)

// BoundKind selects how the engine computes the confidence p̂ from the
// uncertain tuples' marginal distributions.
type BoundKind int

const (
	// BoundIndependent is the paper's Eq. 2–3: p̂ = Π_{f∈D_u} F_f(S_k),
	// exact under the x-tuple independence assumption of §2 (frames and
	// tumbling windows after the difference detector).
	BoundIndependent BoundKind = iota
	// BoundUnion is the Bonferroni lower bound p̂ ≥ 1 − Σ_{f∈D_u}
	// (1 − F_f(S_k)), valid under arbitrary dependence between tuples. It
	// is required for overlapping sliding windows, whose scores share
	// frames and are therefore correlated; Phase 2 keeps its probabilistic
	// guarantee at the cost of extra cleaning.
	BoundUnion
)

// String implements fmt.Stringer.
func (b BoundKind) String() string {
	switch b {
	case BoundIndependent:
		return "independent"
	case BoundUnion:
		return "union"
	default:
		return fmt.Sprintf("BoundKind(%d)", int(b))
	}
}

func (b BoundKind) validate() error {
	switch b {
	case BoundIndependent, BoundUnion:
		return nil
	default:
		return fmt.Errorf("core: unknown bound kind %d", int(b))
	}
}

// noExceed abstracts "the probability that no member uncertain tuple
// scores above t" — the quantity Phase 2 compares against thres. The
// independent implementation computes it exactly (Eq. 3); the union
// implementation lower-bounds it without any independence assumption.
type noExceed interface {
	// Prob returns Pr(∀ members f: S_f ≤ t), or a valid lower bound.
	Prob(t int) float64
	// ProbExcluding returns Prob over members excluding one with
	// distribution d (the Eq. 5 per-candidate factor).
	ProbExcluding(d uncertain.Dist, t int) float64
	// Remove deletes a cleaned member.
	Remove(d uncertain.Dist)
	// Len returns the member count.
	Len() int
	// clone returns an independent copy.
	clone() noExceed
}

// indepProb is the exact product form backed by the log-space JointCDF.
type indepProb struct{ j *uncertain.JointCDF }

func (p indepProb) Prob(t int) float64 { return p.j.At(t) }
func (p indepProb) ProbExcluding(d uncertain.Dist, t int) float64 {
	return p.j.AtExcluding(d, t)
}
func (p indepProb) Remove(d uncertain.Dist) { p.j.Remove(d) }
func (p indepProb) Len() int                { return p.j.Len() }
func (p indepProb) clone() noExceed         { return indepProb{p.j.Clone()} }

// unionProb is the Bonferroni form backed by the tail-sum accumulator.
type unionProb struct{ ts *uncertain.TailSum }

func (p unionProb) Prob(t int) float64 { return clamp01(1 - p.ts.At(t)) }
func (p unionProb) ProbExcluding(d uncertain.Dist, t int) float64 {
	return clamp01(1 - p.ts.AtExcluding(d, t))
}
func (p unionProb) Remove(d uncertain.Dist) { p.ts.Remove(d) }
func (p unionProb) Len() int                { return p.ts.Len() }
func (p unionProb) clone() noExceed         { return unionProb{p.ts.Clone()} }

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// newNoExceed builds the accumulator for the configured bound over the
// live tuples of rel, in position order, covering levels [lo, hi].
//
// A run reads its accumulator only at levels at or above its current
// S_k — Run's Prob(S_k), expectedConfidence at S_k, in (S_k, S_p] and
// at S_p, selectBatch's Prob(S_p) and Prob(S_k), Confidence — and S_k
// never falls, since the certain set only grows. So lo may be the S_k a
// run starts with rather than the lowest level of any tuple: each
// level's sum is the same position-order fold whatever the range, and
// every level at or above lo reads the same bits (see JointCDF and
// TailSum). A hi above every live tuple's Max is exact too.
func newNoExceed(rel uncertain.Relation, live bitset, lo, hi int, kind BoundKind) noExceed {
	switch kind {
	case BoundUnion:
		return unionProb{uncertain.NewTailSumFromRelation(rel, live, lo, hi)}
	default:
		return indepProb{uncertain.NewJointCDFFromRelation(rel, live, lo, hi)}
	}
}
