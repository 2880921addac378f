package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// smallRelation builds a random relation small enough to enumerate.
func smallRelation(r *xrand.RNG, n int) uncertain.Relation {
	rel := make(uncertain.Relation, n)
	for i := range rel {
		sup := 1 + r.Intn(3)
		probs := make([]float64, sup)
		for k := range probs {
			probs[k] = 0.1 + r.Float64()
		}
		rel[i] = uncertain.XTuple{ID: i, Dist: mustDist(r.Intn(5), probs)}
	}
	return rel
}

// bruteMembership computes Pr(tuple in top-k) by enumeration, with rank
// defined by the number of strictly greater scores.
func bruteMembership(rel uncertain.Relation, k int) []float64 {
	out := make([]float64, len(rel))
	enumerateWorlds(rel, func(w world) {
		for i := range rel {
			beat := 0
			for j := range rel {
				if j != i && w.Levels[j] > w.Levels[i] {
					beat++
				}
			}
			if beat <= k-1 {
				out[i] += w.Prob
			}
		}
	})
	return out
}

func TestTopKMembershipMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(5)
		k := 1 + r.Intn(n)
		rel := smallRelation(r, n)
		got := TopKMembershipProb(rel, k)
		want := bruteMembership(rel, k)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestUKRanksMatchesBruteForce(t *testing.T) {
	// Rank-i winner must be the tuple maximizing Pr(exactly i−1 beat it).
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 2 + r.Intn(4)
		k := 1 + r.Intn(n)
		rel := smallRelation(r, n)
		got := UKRanks(rel, k)

		// Brute rank-occupancy probabilities.
		probs := make([][]float64, len(rel))
		for i := range probs {
			probs[i] = make([]float64, k)
		}
		enumerateWorlds(rel, func(w world) {
			for i := range rel {
				beat := 0
				for j := range rel {
					if j != i && w.Levels[j] > w.Levels[i] {
						beat++
					}
				}
				if beat < k {
					probs[i][beat] += w.Prob
				}
			}
		})
		for rank := 0; rank < k; rank++ {
			bestP := -1.0
			for i := range rel {
				if probs[i][rank] > bestP+1e-12 {
					bestP = probs[i][rank]
				}
			}
			// The returned winner must attain the max probability.
			var winnerP float64
			for i := range rel {
				if rel[i].ID == got[rank] {
					winnerP = probs[i][rank]
				}
			}
			if math.Abs(winnerP-bestP) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPTkThresholding(t *testing.T) {
	// A certain high tuple is always returned at p=0.99; a hopeless tuple
	// never is.
	rel := uncertain.Relation{
		{ID: 0, Dist: uncertain.Certain(10)},
		{ID: 1, Dist: mustDist(0, []float64{0.9, 0.1})},
		{ID: 2, Dist: mustDist(4, []float64{0.5, 0.5})},
	}
	ids := PTk(rel, 1, 0.99)
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("PTk = %v, want [0]", ids)
	}
	// PT-k can return an empty set — the failure mode the paper notes.
	relTied := uncertain.Relation{
		{ID: 0, Dist: mustDist(0, []float64{0.5, 0.5})},
		{ID: 1, Dist: mustDist(0, []float64{0.5, 0.5})},
	}
	if got := PTk(relTied, 1, 0.95); len(got) != 0 {
		t.Fatalf("PTk on symmetric relation = %v, want empty", got)
	}
}

func TestUTopKOnPaperExample(t *testing.T) {
	// Table 1a: the most probable Top-1 set.
	rel := uncertain.Relation{
		{ID: 0, Dist: mustDist(0, []float64{0.78, 0.21, 0.01})},
		{ID: 1, Dist: mustDist(0, []float64{0.49, 0.42, 0.09})},
		{ID: 2, Dist: mustDist(0, []float64{0.16, 0.48, 0.36})},
	}
	ids, p := UTopK(rel, 1)
	if len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("U-Top1 = %v, want [2] (f3 is the most probable top-1)", ids)
	}
	if p <= 0 || p > 1 {
		t.Fatalf("U-Top1 probability %v", p)
	}
}

func TestUTopKProbabilitiesSumToOne(t *testing.T) {
	r := xrand.New(99)
	rel := smallRelation(r, 4)
	// The max-probability set's probability must be ≥ 1/(number of sets).
	ids, p := UTopK(rel, 2)
	if len(ids) != 2 {
		t.Fatalf("result size %d", len(ids))
	}
	if p < 1.0/6-1e-9 { // C(4,2) = 6 possible sets
		t.Fatalf("most probable set has probability %v < uniform floor", p)
	}
	if !sort.IntsAreSorted(ids) {
		t.Fatal("UTopK ids not sorted")
	}
}

func TestSemanticsComparisonShowsEverestAdvantage(t *testing.T) {
	// On a relation with substantial uncertainty, the alternative notions
	// answer from the prior alone while Everest cleans via the oracle and
	// guarantees the result. This reproduces the qualitative claim of §2.
	r := xrand.New(7)
	n := 60
	rel := make(uncertain.Relation, n)
	oracle := &trueWorldOracle{levels: make(map[int]int)}
	for i := range rel {
		probs := make([]float64, 4)
		for k := range probs {
			probs[k] = 0.1 + r.Float64()
		}
		rel[i] = uncertain.XTuple{ID: i, Dist: mustDist(r.Intn(8), probs)}
		oracle.levels[i] = sampleLevel(r, rel[i].Dist)
	}
	// A few certain tuples so the engine can bootstrap cheaply.
	for i := 0; i < 5; i++ {
		rel[i].Dist = uncertain.Certain(oracle.levels[i])
	}

	const k = 3
	eng, err := newEngine(rel, Config{K: k, Threshold: 0.95, BatchSize: 1}, oracle, nil, simclock.Default())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}

	trueTop := topTrue(oracle.levels, k)
	evPrec := overlap(res.IDs, trueTop)
	ukPrec := overlap(UKRanks(rel, k), trueTop)
	ptPrec := overlap(PTk(rel, k, 0.5), trueTop)
	if evPrec < ukPrec || evPrec < ptPrec {
		t.Fatalf("everest precision %.2f not ≥ alternatives (ukranks %.2f, ptk %.2f)",
			evPrec, ukPrec, ptPrec)
	}
	if evPrec < 0.6 {
		t.Fatalf("everest precision %.2f unexpectedly low", evPrec)
	}
}

func topTrue(levels map[int]int, k int) []int {
	type e struct{ id, lvl int }
	var es []e
	for id, lvl := range levels {
		es = append(es, e{id, lvl})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].lvl != es[j].lvl {
			return es[i].lvl > es[j].lvl
		}
		return es[i].id < es[j].id
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = es[i].id
	}
	return out
}

func overlap(got, want []int) float64 {
	if len(want) == 0 {
		return 0
	}
	in := make(map[int]bool)
	for _, id := range want {
		in[id] = true
	}
	hit := 0
	for _, id := range got {
		if in[id] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

// UTopK returns the most probable Top-K set and its probability [57,61],
// by exhaustive possible-world enumeration. Exponential — usable only on
// small relations; it exists as a semantic reference, exactly the role it
// plays in the paper's related-work discussion.
func UTopK(rel uncertain.Relation, k int) ([]int, float64) {
	type key string
	setProb := make(map[key]float64)
	setIDs := make(map[key][]int)
	enumerateWorlds(rel, func(w world) {
		// Top-K of this world: k largest levels, ties by ascending ID.
		idx := make([]int, len(rel))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			if w.Levels[idx[a]] != w.Levels[idx[b]] {
				return w.Levels[idx[a]] > w.Levels[idx[b]]
			}
			return rel[idx[a]].ID < rel[idx[b]].ID
		})
		ids := make([]int, k)
		for i := 0; i < k; i++ {
			ids[i] = rel[idx[i]].ID
		}
		sort.Ints(ids)
		kk := key(intsKey(ids))
		setProb[kk] += w.Prob
		setIDs[kk] = ids
	})
	bestP := -1.0
	var bestKey key
	for kk, p := range setProb {
		if p > bestP || (p == bestP && kk < bestKey) {
			bestP = p
			bestKey = kk
		}
	}
	return setIDs[bestKey], bestP
}

func intsKey(ids []int) string {
	b := make([]byte, 0, len(ids)*3)
	for _, id := range ids {
		b = append(b, byte(id), byte(id>>8), byte(id>>16))
	}
	return string(b)
}
