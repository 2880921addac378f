package uncertain

import (
	"math"
	"math/bits"
	"slices"
)

// JointCDF maintains H(t) = Π_{f ∈ U} F_f(t) over a mutable set U of
// uncertain tuples (§3.3.1, Eq. 3). Products over 10⁵–10⁶ frames underflow
// float64 almost immediately, so H is kept in log space with an explicit
// per-level count of zero factors: H(t) = 0 exactly when some member has
// F_f(t) == 0 (that frame is certain to exceed t).
//
// Building over n tuples costs O(Σ support) additions — the logs
// themselves are each Dist's own table, taken once when the Dist was
// built, so a relation whose Dists are memoized pays no math.Log per
// query. Removing a tuple (when Phase 2 cleans it) costs O(its support +
// its Min − lo). Queries are O(1).
//
// Each level's sums are independent of the others and of the covered
// range, so an accumulator over [L, hi] answers LogAt, At and
// AtExcluding with the very bits of one over [lo, hi], lo < L, at every
// t ≥ L, after any sequence of removals; below L it answers as if every
// member exceeded t. Phase 2 relies on this to build it from the S_k a
// run starts with: a run reads only levels at or above its starting S_k.
type JointCDF struct {
	lo, hi int
	// zeros[i] counts members with F_f(lo+i) == 0.
	zeros []int
	// logsum[i] = Σ log F_f(lo+i) over members with F_f > 0 and < 1.
	logsum []float64
	n      int
}

// NewJointCDF creates an accumulator covering levels [lo, hi].
func NewJointCDF(lo, hi int) *JointCDF {
	if hi < lo {
		hi = lo
	}
	return &JointCDF{
		lo:     lo,
		hi:     hi,
		zeros:  make([]int, hi-lo+1),
		logsum: make([]float64, hi-lo+1),
	}
}

// NewJointCDFFromRelation builds H over the tuples rel[i] whose
// bit i is set in live (bit i%64 of word i/64), in position order,
// covering levels [lo, hi]. It visits the set bits only.
func NewJointCDFFromRelation(rel Relation, live []uint64, lo, hi int) *JointCDF {
	j := NewJointCDF(lo, hi)
	for w, word := range live {
		for ; word != 0; word &= word - 1 {
			j.Add(rel[w*64+bits.TrailingZeros64(word)].Dist)
		}
	}
	return j
}

// Clone returns an independent copy of the accumulator: O(levels),
// whatever its member count.
func (j *JointCDF) Clone() *JointCDF {
	return &JointCDF{lo: j.lo, hi: j.hi, zeros: slices.Clone(j.zeros), logsum: slices.Clone(j.logsum), n: j.n}
}

// Lo returns the lowest covered level.
func (j *JointCDF) Lo() int { return j.lo }

// Hi returns the highest covered level.
func (j *JointCDF) Hi() int { return j.hi }

// Len returns the number of member tuples.
func (j *JointCDF) Len() int { return j.n }

// Add inserts a tuple's distribution into the product.
func (j *JointCDF) Add(d Dist) { j.apply(d, +1) }

// Remove deletes a tuple's distribution from the product. The distribution
// must have been added before; removal exactly reverses the logs that Add
// contributed.
func (j *JointCDF) Remove(d Dist) { j.apply(d, -1) }

func (j *JointCDF) apply(d Dist, sign int) {
	j.n += sign
	// Levels below d.Min: F == 0.
	zHi := min(d.Min-1, j.hi)
	for t := j.lo; t <= zHi; t++ {
		j.zeros[t-j.lo] += sign
	}
	// Levels in [d.Min, d.Max-1]: 0 < F < 1.
	from := max(d.Min, j.lo)
	to := min(d.Max()-1, j.hi)
	for t := from; t <= to; t++ {
		j.logsum[t-j.lo] += float64(sign) * d.LogCDF(t)
	}
	// Levels >= d.Max: F == 1, no contribution.
}

// LogAt returns log H(t); −Inf when H(t) == 0.
func (j *JointCDF) LogAt(t int) float64 {
	if j.n == 0 {
		return 0 // empty product
	}
	if t >= j.hi {
		// hi bounds every member's Max, so F_f(t) == 1 for all members.
		return 0
	}
	if t < j.lo {
		return math.Inf(-1)
	}
	if j.zeros[t-j.lo] > 0 {
		return math.Inf(-1)
	}
	// H is a product of CDFs, so log H <= 0; clamp away removal drift.
	return math.Min(j.logsum[t-j.lo], 0)
}

// At returns H(t) = Π F_f(t).
func (j *JointCDF) At(t int) float64 {
	return math.Exp(j.LogAt(t))
}

// AtExcluding returns Π_{g ∈ U \ {f}} F_g(t) for a member f with
// distribution d. Unlike dividing At(t) by F_f(t), this stays well defined
// when F_f(t) == 0 (the 0/0 case of Eq. 5's third branch): the zero factor
// and the log contribution of f are subtracted structurally.
func (j *JointCDF) AtExcluding(d Dist, t int) float64 {
	if j.n <= 1 {
		return 1 // excluding the only member leaves the empty product
	}
	if t >= j.hi {
		return 1
	}
	if t < j.lo {
		// Every other member also has Min >= lo > t, so some factor is 0.
		return 0
	}
	zeros := j.zeros[t-j.lo]
	ls := j.logsum[t-j.lo]
	if t < d.Min {
		zeros--
	} else if t < d.Max() {
		ls -= d.LogCDF(t)
	}
	if zeros > 0 {
		return 0
	}
	return math.Exp(math.Min(ls, 0))
}
