package uncertain

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/xrand"
)

func TestJointCDFMatchesDirectProduct(t *testing.T) {
	dists := []Dist{
		MustDist(0, []float64{0.5, 0.5}),
		MustDist(1, []float64{0.2, 0.3, 0.5}),
		MustDist(0, []float64{0.9, 0.1}),
	}
	j := NewJointCDF(0, 3)
	for _, d := range dists {
		j.Add(d)
	}
	for tLvl := -1; tLvl <= 4; tLvl++ {
		want := 1.0
		for _, d := range dists {
			want *= d.CDF(tLvl)
		}
		if got := j.At(tLvl); math.Abs(got-want) > 1e-12 {
			t.Fatalf("H(%d) = %v, want %v", tLvl, got, want)
		}
	}
}

func TestJointCDFZeroHandling(t *testing.T) {
	j := NewJointCDF(0, 10)
	d := MustDist(5, []float64{0.5, 0.5}) // F(t)=0 for t<5
	j.Add(d)
	if j.At(4) != 0 {
		t.Fatalf("H(4) = %v, want 0", j.At(4))
	}
	if !math.IsInf(j.LogAt(4), -1) {
		t.Fatal("LogAt below support should be -Inf")
	}
	j.Remove(d)
	if j.At(4) != 1 {
		t.Fatalf("after removal H(4) = %v, want 1 (empty product)", j.At(4))
	}
}

func TestJointCDFRemoveRestores(t *testing.T) {
	r := xrand.New(42)
	dists := make([]Dist, 20)
	for i := range dists {
		dists[i] = randomDist(r, 6, 8)
	}
	j := NewJointCDF(0, 20)
	for _, d := range dists {
		j.Add(d)
	}
	// Remove half of them; the result must equal a fresh product of the
	// survivors.
	for i := 0; i < 10; i++ {
		j.Remove(dists[i])
	}
	for tLvl := 0; tLvl <= 20; tLvl++ {
		want := 1.0
		for _, d := range dists[10:] {
			want *= d.CDF(tLvl)
		}
		got := j.At(tLvl)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("H(%d) = %v, want %v after removals", tLvl, got, want)
		}
	}
	if j.Len() != 10 {
		t.Fatalf("Len = %d, want 10", j.Len())
	}
}

func TestJointCDFEmptyProductIsOne(t *testing.T) {
	j := NewJointCDF(0, 5)
	for tLvl := -3; tLvl <= 8; tLvl++ {
		if j.At(tLvl) != 1 {
			t.Fatalf("empty product H(%d) = %v, want 1", tLvl, j.At(tLvl))
		}
	}
}

// TestJointCDFFromRelationReadsLiveOnly: the builder adds exactly the
// live tuples (a dead uncertain one included), and a clone is
// independent of its original.
func TestJointCDFFromRelationReadsLiveOnly(t *testing.T) {
	rel := Relation{
		{ID: 0, Dist: Certain(3)},
		{ID: 1, Dist: MustDist(0, []float64{0.5, 0.5})},
		{ID: 2, Dist: Certain(7)},
		{ID: 3, Dist: MustDist(0, []float64{0.25, 0.75})},
	}
	j := NewJointCDFFromRelation(rel, []uint64{0b0010}, 0, 7)
	if j.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (only live tuples)", j.Len())
	}
	if math.Abs(j.At(0)-0.5) > 1e-12 {
		t.Fatalf("H(0) = %v, want 0.5", j.At(0))
	}
	c := j.Clone()
	c.Remove(rel[1].Dist)
	if c.Len() != 0 || c.At(0) != 1 || j.Len() != 1 || math.Abs(j.At(0)-0.5) > 1e-12 {
		t.Fatalf("clone not independent: clone Len %d H(0) %v, original Len %d H(0) %v", c.Len(), c.At(0), j.Len(), j.At(0))
	}
}

func TestJointCDFAboveRangeIsOne(t *testing.T) {
	j := NewJointCDF(0, 5)
	j.Add(MustDist(0, []float64{0.3, 0.7}))
	if j.At(5) != 1 || j.At(100) != 1 {
		t.Fatal("H above all supports should be 1")
	}
}

func TestJointCDFPropertyAgainstEnumeration(t *testing.T) {
	// H(t) over uncertain tuples equals the brute-force probability that
	// all tuples are <= t (independence), for random small relations.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(5)
		rel := make(Relation, n)
		for i := range rel {
			rel[i] = XTuple{ID: i, Dist: randomDist(r, 4, 6)}
		}
		// H covers only the uncertain tuples (D_u0 in the paper); compare
		// against enumeration over that same subset.
		live := make([]uint64, 1)
		var unc Relation
		for i, x := range rel {
			if !x.Dist.IsCertain() {
				live[0] |= 1 << i
				unc = append(unc, x)
			}
		}
		j := NewJointCDFFromRelation(rel, live, 0, 10)
		for tLvl := -1; tLvl <= 11; tLvl++ {
			want := BruteTopkProb(unc, tLvl)
			got := j.At(tLvl)
			if math.Abs(got-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestJointCDFManyTuplesUnderflowSafe(t *testing.T) {
	// 10^5 tuples each with F(t) = 0.5 would underflow a direct product
	// (0.5^100000); log space must survive and return exactly 0 on Exp.
	j := NewJointCDF(0, 2)
	d := MustDist(0, []float64{0.5, 0.5})
	const n = 100000
	for i := 0; i < n; i++ {
		j.Add(d)
	}
	wantLog := float64(n) * math.Log(0.5)
	if math.Abs(j.LogAt(0)-wantLog) > 1e-6*math.Abs(wantLog) {
		t.Fatalf("LogAt(0) = %v, want %v", j.LogAt(0), wantLog)
	}
	if j.At(0) != 0 {
		t.Fatalf("At(0) should underflow to 0, got %v", j.At(0))
	}
	if j.At(1) != 1 {
		t.Fatalf("At(1) = %v, want 1", j.At(1))
	}
}

func TestWorldEnumeration(t *testing.T) {
	rel := Relation{
		{ID: 0, Dist: MustDist(0, []float64{0.78, 0.21, 0.01})},
		{ID: 1, Dist: MustDist(0, []float64{0.49, 0.42, 0.09})},
		{ID: 2, Dist: MustDist(0, []float64{0.16, 0.48, 0.36})},
	}
	count := 0
	total := 0.0
	EnumerateWorlds(rel, func(w World) {
		count++
		total += w.Prob
	})
	if count != 27 {
		t.Fatalf("world count = %d, want 27 (3^3)", count)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("world probabilities sum to %v, want 1", total)
	}
	if WorldCount(rel) != 27 {
		t.Fatalf("WorldCount = %d, want 27", WorldCount(rel))
	}
}

func TestPaperTable1Example(t *testing.T) {
	// Table 1a / §3: the Top-1 result {f3} over the example relation has
	// confidence 0.85; two specific worlds have the stated probabilities
	// (Table 4).
	f1 := MustDist(0, []float64{0.78, 0.21, 0.01})
	f2 := MustDist(0, []float64{0.49, 0.42, 0.09})
	f3 := MustDist(0, []float64{0.16, 0.48, 0.36})
	rel := Relation{{ID: 0, Dist: f1}, {ID: 1, Dist: f2}, {ID: 2, Dist: f3}}

	// Pr(W1): all three frames have count 0.
	// Pr(W2): f1=1, f2=0, f3=0.
	var w1, w2 float64
	EnumerateWorlds(rel, func(w World) {
		if w.Levels[0] == 0 && w.Levels[1] == 0 && w.Levels[2] == 0 {
			w1 = w.Prob
		}
		if w.Levels[0] == 1 && w.Levels[1] == 0 && w.Levels[2] == 0 {
			w2 = w.Prob
		}
	})
	if math.Abs(w1-0.78*0.49*0.16) > 1e-12 {
		t.Fatalf("Pr(W1) = %v", w1)
	}
	if math.Abs(w2-0.21*0.49*0.16) > 1e-12 {
		t.Fatalf("Pr(W2) = %v", w2)
	}

	// Confidence of {f3} as Top-1: sum over worlds in which f3 is a Top-1
	// (f3's count >= the others'; the paper computes 0.85 allowing ties).
	conf := 0.0
	EnumerateWorlds(rel, func(w World) {
		if w.Levels[2] >= w.Levels[0] && w.Levels[2] >= w.Levels[1] {
			conf += w.Prob
		}
	})
	if math.Abs(conf-0.85) > 0.005 {
		t.Fatalf("Top-1 confidence of f3 = %v, want ≈0.85 (paper)", conf)
	}

	// Table 5: after Oracle(f3) reveals count 0, the confidence of {f3}
	// drops to ≈0.38 = Pr(f1=0)·Pr(f2=0) allowing ties.
	after := f1.CDF(0) * f2.CDF(0)
	if math.Abs(after-0.78*0.49) > 1e-12 {
		t.Fatalf("post-clean confidence = %v", after)
	}
	if math.Abs(after-0.38) > 0.005 {
		t.Fatalf("post-clean confidence = %v, want ≈0.38 (paper)", after)
	}
}

// TestFromRelationSpansWords: over a relation of 150 tuples whose live
// bits fall in all three words of the mask, both builders add exactly
// the live tuples in position order — the same bits as adding them one
// by one.
func TestFromRelationSpansWords(t *testing.T) {
	r := xrand.New(17)
	rel := make(Relation, 150)
	live := make([]uint64, 3)
	j, ts := NewJointCDF(0, 10), NewTailSum(0, 10)
	for i := range rel {
		rel[i] = XTuple{ID: i, Dist: randomDist(r, 4, 6)}
		if i%7 == 3 || i == 63 || i == 64 || i == 149 {
			live[i/64] |= 1 << (i % 64)
			j.Add(rel[i].Dist)
			ts.Add(rel[i].Dist)
		}
	}
	gotJ, gotT := NewJointCDFFromRelation(rel, live, 0, 10), NewTailSumFromRelation(rel, live, 0, 10)
	if gotJ.Len() != j.Len() || gotT.Len() != ts.Len() {
		t.Fatalf("built over %d and %d tuples, want %d", gotJ.Len(), gotT.Len(), j.Len())
	}
	for lvl := -1; lvl <= 11; lvl++ {
		if math.Float64bits(gotJ.At(lvl)) != math.Float64bits(j.At(lvl)) || math.Float64bits(gotT.At(lvl)) != math.Float64bits(ts.At(lvl)) {
			t.Fatalf("level %d: built H %v T %v, added one by one H %v T %v", lvl, gotJ.At(lvl), gotT.At(lvl), j.At(lvl), ts.At(lvl))
		}
	}
}
