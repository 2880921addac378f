package uncertain

import (
	"math"
	"strings"
	"testing"
)

// copyThenDivide is how a Dist used to be built from its bucket masses:
// trim the zero head and tail, then copy each remaining mass divided by
// the sum of all of them into a fresh array. settle builds in place; the
// bits must not differ.
func copyThenDivide(min int, probs []float64) Dist {
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	lo, hi := 0, len(probs)
	for lo < hi && probs[lo] == 0 {
		lo++
	}
	for hi > lo && probs[hi-1] == 0 {
		hi--
	}
	n := hi - lo
	back := make([]float64, 3*n)
	d := Dist{Min: min + lo, P: back[:n:n], cum: back[n:]}
	for i := range d.P {
		d.P[i] = probs[lo+i] / sum
	}
	d.buildCum()
	return d
}

// sameBits reports whether two distributions agree to the bit: level
// range, probabilities, CDF and log-CDF tables.
func sameBits(a, b Dist) bool {
	if a.Min != b.Min || len(a.P) != len(b.P) || len(a.cum) != len(b.cum) {
		return false
	}
	for i := range a.P {
		if math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
			return false
		}
	}
	for i := range a.cum {
		if math.Float64bits(a.cum[i]) != math.Float64bits(b.cum[i]) {
			return false
		}
	}
	return true
}

// TestNewDistMatchesCopyThenDivide: NewDist, which finishes in its own
// array, is bit-identical to the copy-then-divide form, also when the
// trim moves the masses down over themselves.
func TestNewDistMatchesCopyThenDivide(t *testing.T) {
	for _, tc := range []struct {
		name  string
		probs []float64
	}{
		{"one", []float64{0.3}},
		{"untrimmed", []float64{0.1, 0.7, 0.2, 1e-300}},
		{"zero head", []float64{0, 0, 0.25, 0.5, 0.125}},
		{"zero tail", []float64{0.2, 0.3, 0, 0, 0}},
		{"zero head and tail", []float64{0, 0.1, 0, 0.3, 0.6, 0, 0}},
		{"long zero head", []float64{0, 0, 0, 0, 0, 0, 0, 1.5, 2.5}},
	} {
		got, err := NewDist(-3, tc.probs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := copyThenDivide(-3, tc.probs); !sameBits(got, want) {
			t.Fatalf("%s: NewDist %+v, copy-then-divide %+v", tc.name, got, want)
		}
	}
}

// TestQuantizeMatchesCopyThenDivide: Quantize, which accumulates its
// bucket masses straight into the Dist's array, is bit-identical to
// normalizing the same masses by copy-then-divide — for mixtures whose
// range starts or ends with empty buckets (a zero-weight component far
// out) as well as for clamped and stepped ones.
func TestQuantizeMatchesCopyThenDivide(t *testing.T) {
	counting := DefaultCountingOptions()
	stepped := QuantizeOptions{Step: 0.25, MinLevel: math.MinInt, MaxLevel: math.MaxInt, TruncSigma: 2}
	capped := QuantizeOptions{Step: 1, MinLevel: 0, MaxLevel: 6}
	for _, tc := range []struct {
		name string
		mix  Mixture
		opt  QuantizeOptions
	}{
		{"one component", Mixture{{Weight: 1, Mean: 4.3, Sigma: 1.1}}, counting},
		{"two components", Mixture{{Weight: 0.6, Mean: 2, Sigma: 0.4}, {Weight: 0.4, Mean: 9, Sigma: 2}}, counting},
		{"empty head", Mixture{{Weight: 0, Mean: 1, Sigma: 0.3}, {Weight: 1, Mean: 12, Sigma: 0.5}}, counting},
		{"empty tail", Mixture{{Weight: 1, Mean: 3, Sigma: 0.3}, {Weight: 0, Mean: 20, Sigma: 1}}, counting},
		{"empty head and tail", Mixture{{Weight: 0, Mean: 2, Sigma: 0.2}, {Weight: 1, Mean: 8, Sigma: 0.6}, {Weight: 0, Mean: 15, Sigma: 0.2}}, counting},
		{"clamped below", Mixture{{Weight: 0.7, Mean: -0.4, Sigma: 0.9}, {Weight: 0.3, Mean: -9, Sigma: 0.1}}, counting},
		{"clamped above", Mixture{{Weight: 0.5, Mean: 5.5, Sigma: 1}, {Weight: 0.5, Mean: 40, Sigma: 1}}, capped},
		{"stepped", Mixture{{Weight: 0.5, Mean: -1.3, Sigma: 0.4}, {Weight: 0.5, Mean: 0.8, Sigma: 0.3}}, stepped},
	} {
		got, err := Quantize(tc.mix, tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		trunc := tc.opt.TruncSigma
		if trunc == 0 {
			trunc = 3
		}
		lo, hi := levelRange(tc.mix, tc.opt, trunc)
		probs := make([]float64, hi-lo+1)
		addMasses(probs, lo, tc.mix, tc.opt.Step, trunc)
		if want := copyThenDivide(lo, probs); !sameBits(got, want) {
			t.Fatalf("%s: Quantize %+v, copy-then-divide %+v", tc.name, got, want)
		}
		if trims := got.Min != lo || len(got.P) != len(probs); trims != strings.HasPrefix(tc.name, "empty") {
			t.Fatalf("%s: %d buckets from level %d became %d from level %d; a trim was expected: %v", tc.name, len(probs), lo, len(got.P), got.Min, !trims)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
}

// TestQuantizeAllocatesOnce: a mixture that quantizes to more than a
// point mass costs one allocation — the array holding its P, CDF and
// log-CDF tables, into which the bucket masses are accumulated.
func TestQuantizeAllocatesOnce(t *testing.T) {
	m := Mixture{{Weight: 0.6, Mean: 3.2, Sigma: 0.8}, {Weight: 0.4, Mean: 6, Sigma: 1.5}}
	opt := DefaultCountingOptions()
	allocs := testing.AllocsPerRun(100, func() {
		quantizeSink, _ = Quantize(m, opt)
	})
	if allocs != 1 {
		t.Fatalf("Quantize allocated %v times per call, want 1", allocs)
	}
	if quantizeSink.IsCertain() {
		t.Fatal("the mixture quantized to a point mass; the test measures nothing")
	}
}
