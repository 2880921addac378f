package core

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/uncertain"
)

// TestWorldOracleMatchesIndependentCDFs checks this package's copy of
// the possible-world oracle before other tests trust it: the worlds'
// probabilities sum to 1, and since tuples are independent, the brute-
// force Pr(no tuple exceeds sk) equals the product of the tuples' CDFs
// at sk, for every sk across the relation's support.
func TestWorldOracleMatchesIndependentCDFs(t *testing.T) {
	rel := uncertain.Relation{
		{ID: 0, Dist: mustDist(0, []float64{0.78, 0.21, 0.01})},
		{ID: 1, Dist: mustDist(0, []float64{0.49, 0.42, 0.09})},
		{ID: 2, Dist: mustDist(1, []float64{0.2, 0, 0.5, 0.3})},
		{ID: 3, Dist: mustDist(2, []float64{1})},
	}
	total, worlds := 0.0, 0
	enumerateWorlds(rel, func(w world) {
		total += w.Prob
		worlds++
	})
	if worlds != 3*3*3*1 {
		t.Fatalf("%d worlds, want 27 (zero-probability alternatives skipped)", worlds)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("world probabilities sum to %v", total)
	}
	for sk := -1; sk <= 5; sk++ {
		want := 1.0
		for _, tp := range rel {
			want *= tp.Dist.CDF(sk)
		}
		if got := bruteTopkProb(rel, sk); math.Abs(got-want) > 1e-12 {
			t.Fatalf("sk %d: brute force %v, product of CDFs %v", sk, got, want)
		}
	}
}
