package uncertain

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// narrowCase is one random membership for the range tests: the members'
// distributions, in insertion order, and the lowest and highest levels
// any of them reaches.
func narrowCase(r *xrand.RNG) (dists []Dist, lo, hi int) {
	n := 1 + r.Intn(30)
	lo, hi = math.MaxInt, math.MinInt
	for range n {
		d := randomDist(r, 6, 10)
		if r.Intn(5) == 0 {
			d = Certain(r.Intn(14))
		}
		dists = append(dists, d)
		lo, hi = min(lo, d.Min), max(hi, d.Max())
	}
	return dists, lo, hi
}

// assertNarrowRange builds an accumulator over [L, hi] and one over the
// members' full range [lo, hi] for every L in [lo − 2, hi + 2], adding
// the members in one order, and checks that they answer with the same
// bits at every level t ≥ L — before any removal and after each of a
// random sequence of them, applied to both.
func assertNarrowRange(t *testing.T, name string, build func(lo, hi int) (add, remove func(Dist), answers func(t int, members []Dist) []float64)) {
	t.Helper()
	for seed := uint64(0); seed < 40; seed++ {
		r := xrand.New(900 + seed)
		dists, lo, hi := narrowCase(r)
		for L := lo - 2; L <= hi+2; L++ {
			addFull, removeFull, full := build(lo, hi)
			addNarrow, removeNarrow, narrow := build(L, hi)
			for _, d := range dists {
				addFull(d)
				addNarrow(d)
			}
			members := append([]Dist(nil), dists...)
			for {
				for lvl := L; lvl <= hi+3; lvl++ {
					want, got := full(lvl, members), narrow(lvl, members)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s seed %d, range [%d, %d] vs [%d, %d], %d members, level %d, answer %d: %v, want %v",
								name, seed, L, hi, lo, hi, len(members), lvl, i, got[i], want[i])
						}
					}
				}
				if len(members) == 0 {
					break
				}
				i := r.Intn(len(members))
				removeFull(members[i])
				removeNarrow(members[i])
				members = append(members[:i], members[i+1:]...)
			}
		}
	}
}

// TestJointCDFNarrowRangeBitIdentical: a JointCDF built from a low end
// L answers LogAt, At and AtExcluding (for every member) with the bits
// of the full-range one at every level from L up — the property that
// lets Phase 2 build it from the S_k a run starts with.
func TestJointCDFNarrowRangeBitIdentical(t *testing.T) {
	assertNarrowRange(t, "JointCDF", func(lo, hi int) (func(Dist), func(Dist), func(int, []Dist) []float64) {
		j := NewJointCDF(lo, hi)
		return j.Add, j.Remove, func(t int, members []Dist) []float64 {
			out := []float64{j.LogAt(t), j.At(t)}
			for _, d := range members {
				out = append(out, j.AtExcluding(d, t))
			}
			return out
		}
	})
}

// TestTailSumNarrowRangeBitIdentical is the same property for the
// union bound's TailSum: At and AtExcluding.
func TestTailSumNarrowRangeBitIdentical(t *testing.T) {
	assertNarrowRange(t, "TailSum", func(lo, hi int) (func(Dist), func(Dist), func(int, []Dist) []float64) {
		ts := NewTailSum(lo, hi)
		return ts.Add, ts.Remove, func(t int, members []Dist) []float64 {
			out := []float64{ts.At(t)}
			for _, d := range members {
				out = append(out, ts.AtExcluding(d, t))
			}
			return out
		}
	})
}
