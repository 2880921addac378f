package uncertain

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/xrand"
)

func TestTailSumMatchesDirectSum(t *testing.T) {
	dists := []Dist{
		MustDist(0, []float64{0.5, 0.5}),
		MustDist(1, []float64{0.2, 0.3, 0.5}),
		MustDist(0, []float64{0.9, 0.1}),
	}
	ts := NewTailSum(0, 3)
	for _, d := range dists {
		ts.Add(d)
	}
	for lvl := -1; lvl <= 4; lvl++ {
		want := 0.0
		for _, d := range dists {
			want += 1 - d.CDF(lvl)
		}
		if got := ts.At(lvl); math.Abs(got-want) > 1e-12 {
			t.Fatalf("T(%d) = %v, want %v", lvl, got, want)
		}
	}
}

func TestTailSumBelowRangeCountsMembers(t *testing.T) {
	ts := NewTailSum(3, 8)
	ts.Add(MustDist(4, []float64{0.5, 0.5}))
	ts.Add(MustDist(6, []float64{1}))
	if got := ts.At(1); got != 2 {
		t.Fatalf("T below range = %v, want member count 2", got)
	}
	if got := ts.At(100); got != 0 {
		t.Fatalf("T above range = %v, want 0", got)
	}
}

func TestTailSumRemoveRestores(t *testing.T) {
	r := xrand.New(7)
	dists := make([]Dist, 20)
	for i := range dists {
		dists[i] = randomDist(r, 6, 8)
	}
	ts := NewTailSum(0, 20)
	for _, d := range dists {
		ts.Add(d)
	}
	for i := 0; i < 10; i++ {
		ts.Remove(dists[i])
	}
	for lvl := 0; lvl <= 20; lvl++ {
		want := 0.0
		for _, d := range dists[10:] {
			want += 1 - d.CDF(lvl)
		}
		if got := ts.At(lvl); math.Abs(got-want) > 1e-9 {
			t.Fatalf("T(%d) = %v, want %v after removals", lvl, got, want)
		}
	}
	if ts.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ts.Len())
	}
}

func TestTailSumEmptyIsZero(t *testing.T) {
	ts := NewTailSum(0, 5)
	for lvl := -3; lvl <= 8; lvl++ {
		if ts.At(lvl) != 0 {
			t.Fatalf("empty T(%d) = %v, want 0", lvl, ts.At(lvl))
		}
	}
}

// TestTailSumFromRelationReadsLiveOnly: the builder adds exactly the
// live tuples (a dead uncertain one included), and a clone is
// independent of its original.
func TestTailSumFromRelationReadsLiveOnly(t *testing.T) {
	rel := Relation{
		{ID: 0, Dist: Certain(3)},
		{ID: 1, Dist: MustDist(0, []float64{0.5, 0.5})},
		{ID: 2, Dist: Certain(7)},
		{ID: 3, Dist: MustDist(0, []float64{0.25, 0.75})},
	}
	ts := NewTailSumFromRelation(rel, []uint64{0b0010}, 0, 7)
	if ts.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only live tuples)", ts.Len())
	}
	if math.Abs(ts.At(0)-0.5) > 1e-12 {
		t.Fatalf("T(0) = %v, want 0.5", ts.At(0))
	}
	c := ts.Clone()
	c.Remove(rel[1].Dist)
	if c.Len() != 0 || c.At(0) != 0 || ts.Len() != 1 || math.Abs(ts.At(0)-0.5) > 1e-12 {
		t.Fatalf("clone not independent: clone Len %d T(0) %v, original Len %d T(0) %v", c.Len(), c.At(0), ts.Len(), ts.At(0))
	}
}

func TestTailSumAtExcluding(t *testing.T) {
	a := MustDist(0, []float64{0.5, 0.5})
	b := MustDist(1, []float64{0.2, 0.3, 0.5})
	ts := NewTailSum(0, 4)
	ts.Add(a)
	ts.Add(b)
	for lvl := -1; lvl <= 5; lvl++ {
		want := 1 - b.CDF(lvl)
		if got := ts.AtExcluding(a, lvl); math.Abs(got-want) > 1e-12 {
			t.Fatalf("T\\a(%d) = %v, want %v", lvl, got, want)
		}
	}
	ts.Remove(b)
	if got := ts.AtExcluding(a, 0); got != 0 {
		t.Fatalf("excluding the only member should give 0, got %v", got)
	}
}

// TestUnionBoundIsValidLowerBound verifies the Bonferroni inequality this
// accumulator exists for: 1 − T(t) ≤ Pr(all ≤ t) for independent tuples
// (the only case we can enumerate), for random small relations.
func TestUnionBoundIsValidLowerBound(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(5)
		rel := make(Relation, n)
		for i := range rel {
			rel[i] = XTuple{ID: i, Dist: randomDist(r, 4, 6)}
		}
		live := make([]uint64, 1)
		var unc Relation
		for i, x := range rel {
			if !x.Dist.IsCertain() {
				live[0] |= 1 << i
				unc = append(unc, x)
			}
		}
		ts := NewTailSumFromRelation(rel, live, 0, 10)
		for lvl := -1; lvl <= 11; lvl++ {
			exact := BruteTopkProb(unc, lvl)
			lower := 1 - ts.At(lvl)
			if lower > exact+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestUnionBoundTightWhenTailsSmall: for a single uncertain tuple the
// union bound is exact; with tiny tails it is within the sum of pairwise
// products of the exact value.
func TestUnionBoundTightWhenTailsSmall(t *testing.T) {
	d := MustDist(0, []float64{0.99, 0.01})
	ts := NewTailSum(0, 2)
	ts.Add(d)
	if got, want := 1-ts.At(0), d.CDF(0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("single-member union bound = %v, want exact %v", got, want)
	}
	// Two members with tail ε each: exact = (1−ε)², bound = 1−2ε; the gap
	// is ε² — second-order small.
	ts.Add(d)
	exact := d.CDF(0) * d.CDF(0)
	bound := 1 - ts.At(0)
	if gap := exact - bound; gap < 0 || gap > 1e-4+1e-12 {
		t.Fatalf("gap = %v, want within ε² = 1e-4", gap)
	}
}

func TestTailSumExcludingNeverNegative(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(6)
		dists := make([]Dist, n)
		ts := NewTailSum(0, 12)
		for i := range dists {
			dists[i] = randomDist(r, 5, 7)
			ts.Add(dists[i])
		}
		for lvl := -2; lvl <= 14; lvl++ {
			if ts.At(lvl) < 0 {
				return false
			}
			for _, d := range dists {
				if ts.AtExcluding(d, lvl) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
