package uncertain

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/xrand"
)

func TestNewDistNormalizes(t *testing.T) {
	d, err := NewDist(2, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Pr(2)-0.25) > 1e-12 || math.Abs(d.Pr(3)-0.75) > 1e-12 {
		t.Fatalf("normalization wrong: %v", d.P)
	}
}

func TestNewDistTrims(t *testing.T) {
	d, err := NewDist(0, []float64{0, 0, 0.5, 0.5, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if d.Min != 2 || d.Max() != 3 {
		t.Fatalf("trim wrong: Min=%d Max=%d", d.Min, d.Max())
	}
}

func TestNewDistRejectsInvalid(t *testing.T) {
	cases := [][]float64{
		{},
		{0, 0},
		{-0.1, 1.1},
		{math.NaN()},
		{math.Inf(1)},
	}
	for _, probs := range cases {
		if _, err := NewDist(0, probs); err == nil {
			t.Fatalf("NewDist(%v) should fail", probs)
		}
	}
}

func TestCertain(t *testing.T) {
	d := Certain(7)
	if !d.IsCertain() || d.Min != 7 || d.Pr(7) != 1 {
		t.Fatalf("Certain(7) wrong: %+v", d)
	}
	if d.CDF(6) != 0 || d.CDF(7) != 1 || d.CDF(100) != 1 {
		t.Fatal("Certain CDF wrong")
	}
}

// TestCertainAllocatesNothing: a point mass is its level and a slice of
// the one read-only table every point mass shares, so building one
// allocates nothing, and the table reads {1, 1, 0} — P, CDF, log-CDF.
func TestCertainAllocatesNothing(t *testing.T) {
	var d Dist
	if n := testing.AllocsPerRun(100, func() { d = Certain(d.Min + 1) }); n != 0 {
		t.Fatalf("Certain allocates %v times a call, want 0", n)
	}
	a, b := Certain(3), Certain(-8)
	if &a.P[0] != &b.P[0] || &a.cum[0] != &b.cum[0] {
		t.Fatal("two point masses do not share one table")
	}
	if pointMass != [...]float64{1, 1, 0} {
		t.Fatalf("the point-mass table reads %v, want [1 1 0]", pointMass)
	}
}

func TestCDFBounds(t *testing.T) {
	d := MustDist(5, []float64{0.2, 0.3, 0.5})
	if d.CDF(4) != 0 {
		t.Fatal("CDF below Min should be 0")
	}
	if d.CDF(7) != 1 || d.CDF(1000) != 1 {
		t.Fatal("CDF at/above Max should be 1")
	}
	if math.Abs(d.CDF(5)-0.2) > 1e-12 || math.Abs(d.CDF(6)-0.5) > 1e-12 {
		t.Fatal("interior CDF wrong")
	}
}

func TestLogCDF(t *testing.T) {
	d := MustDist(0, []float64{0.5, 0.5})
	if !math.IsInf(d.LogCDF(-1), -1) {
		t.Fatal("LogCDF below support should be -Inf")
	}
	if math.Abs(d.LogCDF(0)-math.Log(0.5)) > 1e-12 {
		t.Fatal("LogCDF wrong")
	}
	if d.LogCDF(1) != 0 {
		t.Fatal("LogCDF at Max should be 0")
	}
}

// TestLogCDFTableBitIdentical: the log-CDF table a Dist is built with
// reads back, bit for bit, the math.Log(CDF(t)) that LogCDF used to
// take on every call — below, inside and above the support, for random
// distributions, quantized mixtures, point masses, and mixtures the
// clamp collapses onto a single level.
func TestLogCDFTableBitIdentical(t *testing.T) {
	r := xrand.New(77).Split("logcdf")
	dists := []Dist{Certain(0), Certain(-3), Certain(41)}
	for i := 0; i < 300; i++ {
		dists = append(dists, randomDist(r, 12, 40))
		q, err := Quantize(randomMixture(r), DefaultCountingOptions())
		if err != nil {
			t.Fatal(err)
		}
		dists = append(dists, q)
	}
	for _, clamp := range []QuantizeOptions{
		{Step: 1, MinLevel: 50, MaxLevel: 60, TruncSigma: 3}, // wholly below the clamp
		{Step: 1, MinLevel: 0, MaxLevel: 2, TruncSigma: 3},   // wholly above it
		{Step: 1, MinLevel: 7, MaxLevel: 7, TruncSigma: 3},   // one level left
	} {
		q, err := Quantize(Mixture{{Weight: 0.5, Mean: 6, Sigma: 1}, {Weight: 0.5, Mean: 9, Sigma: 0.5}}, clamp)
		if err != nil {
			t.Fatal(err)
		}
		if !q.IsCertain() {
			t.Fatalf("clamp %+v left %d levels, want 1", clamp, len(q.P))
		}
		dists = append(dists, q)
	}
	for _, d := range dists {
		for lvl := d.Min - 2; lvl <= d.Max()+2; lvl++ {
			got, want := d.LogCDF(lvl), math.Log(d.CDF(lvl))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LogCDF(%d) = %v (%#x), math.Log(CDF) = %v (%#x) for %+v",
					lvl, got, math.Float64bits(got), want, math.Float64bits(want), d)
			}
		}
	}
}

func TestMeanVariance(t *testing.T) {
	d := MustDist(0, []float64{0.5, 0, 0.5}) // levels 0 and 2... trims? middle zero is interior, kept.
	if math.Abs(d.Mean()-1) > 1e-12 {
		t.Fatalf("Mean = %v, want 1", d.Mean())
	}
	if math.Abs(d.Variance()-1) > 1e-12 {
		t.Fatalf("Variance = %v, want 1", d.Variance())
	}
}

// randomDist builds a small random distribution for property tests.
func randomDist(r *xrand.RNG, maxSupport, maxMin int) Dist {
	n := 1 + r.Intn(maxSupport)
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = r.Float64()
	}
	// Ensure ends are nonzero so Min/Max are predictable.
	probs[0] += 0.01
	probs[n-1] += 0.01
	return MustDist(r.Intn(maxMin+1), probs)
}

func TestDistValidateProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := randomDist(r, 8, 10)
		return d.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCDFMatchesPrefixSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		d := randomDist(r, 10, 5)
		acc := 0.0
		for lvl := d.Min; lvl <= d.Max(); lvl++ {
			acc += d.Pr(lvl)
			if math.Abs(d.CDF(lvl)-math.Min(acc, 1)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		d := randomDist(xrand.New(seed), 12, 20)
		return d.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
