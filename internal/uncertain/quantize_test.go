package uncertain

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/xrand"
)

func TestQuantizeSingleGaussian(t *testing.T) {
	m := Mixture{{Weight: 1, Mean: 5, Sigma: 1}}
	d, err := Quantize(m, DefaultCountingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Mode at 5.
	best, bestP := 0, 0.0
	for lvl := d.Min; lvl <= d.Max(); lvl++ {
		if p := d.Pr(lvl); p > bestP {
			best, bestP = lvl, p
		}
	}
	if best != 5 {
		t.Fatalf("mode at %d, want 5", best)
	}
	// Mean close to 5, variance close to 1 (bucketing + truncation shave a
	// little).
	if math.Abs(d.Mean()-5) > 0.05 {
		t.Fatalf("mean %v, want ~5", d.Mean())
	}
	if math.Abs(d.Variance()-1) > 0.2 {
		t.Fatalf("variance %v, want ~1", d.Variance())
	}
}

func TestQuantizeTruncatesAt3Sigma(t *testing.T) {
	m := Mixture{{Weight: 1, Mean: 50, Sigma: 2}}
	d, err := Quantize(m, DefaultCountingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Min < 44 || d.Max() > 56 {
		t.Fatalf("support [%d,%d] exceeds 3σ around 50", d.Min, d.Max())
	}
}

func TestQuantizeClampsNegativeSupport(t *testing.T) {
	// Counting scores cannot be negative; a Gaussian centred near 0 must be
	// clamped at level 0.
	m := Mixture{{Weight: 1, Mean: 0.2, Sigma: 1.5}}
	d, err := Quantize(m, DefaultCountingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.Min < 0 {
		t.Fatalf("support contains negative level %d", d.Min)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeEntirelyBelowClamp(t *testing.T) {
	m := Mixture{{Weight: 1, Mean: -50, Sigma: 1}}
	d, err := Quantize(m, DefaultCountingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsCertain() || d.Min != 0 {
		t.Fatalf("fully-clamped mixture should collapse to level 0, got %+v", d)
	}
}

func TestQuantizeEntirelyAboveClamp(t *testing.T) {
	opt := DefaultCountingOptions()
	opt.MaxLevel = 10
	m := Mixture{{Weight: 1, Mean: 50, Sigma: 1}}
	d, err := Quantize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsCertain() || d.Min != 10 {
		t.Fatalf("fully-clamped mixture should collapse to level 10, got %+v", d)
	}
}

func TestQuantizeMixtureBimodal(t *testing.T) {
	m := Mixture{
		{Weight: 0.5, Mean: 2, Sigma: 0.5},
		{Weight: 0.5, Mean: 10, Sigma: 0.5},
	}
	d, err := Quantize(m, DefaultCountingOptions())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-6) > 0.1 {
		t.Fatalf("bimodal mean %v, want ~6", d.Mean())
	}
	if d.Pr(2) < 0.2 || d.Pr(10) < 0.2 {
		t.Fatalf("modes not preserved: Pr(2)=%v Pr(10)=%v", d.Pr(2), d.Pr(10))
	}
	if d.Pr(6) > 0.05 {
		t.Fatalf("valley too heavy: Pr(6)=%v", d.Pr(6))
	}
}

func TestQuantizeStepSize(t *testing.T) {
	// Depth-style continuous score with step 0.5: score 3.7 → level 7,
	// wait: round(3.7/0.5) = round(7.4) = 7.
	if got := LevelOf(3.7, 0.5); got != 7 {
		t.Fatalf("LevelOf(3.7, 0.5) = %d, want 7", got)
	}
	if got := LevelValue(7, 0.5); got != 3.5 {
		t.Fatalf("LevelValue(7, 0.5) = %v, want 3.5", got)
	}
	m := Mixture{{Weight: 1, Mean: 3.7, Sigma: 0.3}}
	opt := QuantizeOptions{Step: 0.5, MinLevel: 0, MaxLevel: math.MaxInt}
	d, err := Quantize(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.Mean()-7.4) > 0.2 {
		t.Fatalf("quantized mean level %v, want ~7.4", d.Mean())
	}
}

func TestQuantizeRejectsBadInput(t *testing.T) {
	good := Mixture{{Weight: 1, Mean: 0, Sigma: 1}}
	if _, err := Quantize(good, QuantizeOptions{Step: 0}); err == nil {
		t.Fatal("zero step should fail")
	}
	if _, err := Quantize(Mixture{}, DefaultCountingOptions()); err == nil {
		t.Fatal("empty mixture should fail")
	}
	bad := Mixture{{Weight: 1, Mean: 0, Sigma: -1}}
	if _, err := Quantize(bad, DefaultCountingOptions()); err == nil {
		t.Fatal("negative sigma should fail")
	}
	badW := Mixture{{Weight: 0.5, Mean: 0, Sigma: 1}}
	if _, err := Quantize(badW, DefaultCountingOptions()); err == nil {
		t.Fatal("weights not summing to 1 should fail")
	}
}

func TestQuantizeNormalDegenerate(t *testing.T) {
	d, err := QuantizeNormal(4.2, 0, QuantizeOptions{Step: 1, MinLevel: 0, MaxLevel: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsCertain() || d.Min != 4 {
		t.Fatalf("degenerate normal should be point mass at 4, got %+v", d)
	}
}

func TestMixtureMeanVariance(t *testing.T) {
	m := Mixture{
		{Weight: 0.3, Mean: 0, Sigma: 1},
		{Weight: 0.7, Mean: 10, Sigma: 2},
	}
	wantMean := 7.0
	if math.Abs(m.Mean()-wantMean) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", m.Mean(), wantMean)
	}
	// Var = Σπ(σ²+μ²) − μ̄² = 0.3·1 + 0.7·(4+100) − 49 = 0.3+72.8−49 = 24.1
	if math.Abs(m.Variance()-24.1) > 1e-9 {
		t.Fatalf("Variance = %v, want 24.1", m.Variance())
	}
}

// randomMixture generates a mixture with positive sigmas and normalized
// weights.
func randomMixture(r *xrand.RNG) Mixture {
	n := 1 + r.Intn(4)
	m := make(Mixture, n)
	sum := 0.0
	for i := range m {
		w := 0.05 + r.Float64()
		m[i] = GaussianComponent{
			Weight: w,
			Mean:   r.Float64() * 30,
			Sigma:  0.2 + 3*r.Float64(),
		}
		sum += w
	}
	for i := range m {
		m[i].Weight /= sum
	}
	return m
}

func TestQuantizePropertyValidAndMeanPreserving(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		m := randomMixture(r)
		d, err := Quantize(m, DefaultCountingOptions())
		if err != nil {
			return false
		}
		if d.Validate() != nil {
			return false
		}
		// The clamp at level 0 biases the mean upward for mixtures with
		// substantial negative mass; allow for that plus bucketing error.
		negMass := 0.0
		for _, c := range m {
			negMass += c.Weight * stdNormCDF((0-c.Mean)/c.Sigma)
		}
		if negMass > 0.02 {
			return d.Mean() >= m.Mean()-1
		}
		return math.Abs(d.Mean()-m.Mean()) < 0.75
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStdNormCDF(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.841345},
		{-1, 0.158655},
		{3, 0.998650},
	}
	for _, c := range cases {
		if got := stdNormCDF(c.x); math.Abs(got-c.want) > 1e-5 {
			t.Fatalf("Φ(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

var quantizeSink Dist

// BenchmarkQuantize is one mixture to one Dist, CDF and log-CDF tables
// included — what D0's base build pays per unlabelled retained frame.
func BenchmarkQuantize(b *testing.B) {
	r := xrand.New(5).Split("bench/quantize")
	mixes := make([]Mixture, 256)
	for i := range mixes {
		mixes[i] = randomMixture(r)
	}
	opt := DefaultCountingOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantizeSink, _ = Quantize(mixes[i%len(mixes)], opt)
	}
}
