package video

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// TestClamp01MatchesBuiltins: the renderer's two-compare clamp returns
// the bits of max(0, min(1, v)) for every special value and for random
// ones, in and around [0, 1] and across the whole bit space. The one
// exception is a NaN's sign: the builtins clear it, the compares pass the
// NaN through. Both return a NaN, and no rendered pixel is one (every
// operand of the noise expression is finite).
func TestClamp01MatchesBuiltins(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Nextafter(1, 2), math.Nextafter(1, 0), math.MaxFloat64, -math.MaxFloat64,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000000),
	}
	r := xrand.New(1)
	for range 100000 {
		vals = append(vals, 1.4*r.Float64()-0.2, math.Float64frombits(r.Uint64()))
	}
	for _, v := range vals {
		want, got := max(0, min(1, v)), clamp01(v)
		if math.IsNaN(v) {
			if !math.IsNaN(got) || math.Float64bits(got)&^(1<<63) != math.Float64bits(want)&^(1<<63) {
				t.Fatalf("clamp01(%#x) = %#x, builtins give %#x", math.Float64bits(v), math.Float64bits(got), math.Float64bits(want))
			}
			continue
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clamp01(%v) = %v (%#x), builtins give %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestHash01SignedConversionExact: converting the top 53 bits as a signed
// integer gives the value the unsigned conversion gives.
func TestHash01SignedConversionExact(t *testing.T) {
	r := xrand.New(2)
	for range 100000 {
		x := r.Uint64()
		want := float64(x>>11) / (1 << 53)
		if got := float64(int64(x>>11)) / (1 << 53); got != want {
			t.Fatalf("x = %#x: signed conversion %v, unsigned %v", x, got, want)
		}
	}
	for _, x := range []uint64{0, math.MaxUint64, 1 << 63, 1<<53 - 1} {
		if got, want := float64(int64(x>>11)), float64(x>>11); got != want {
			t.Fatalf("x = %#x: signed conversion %v, unsigned %v", x, got, want)
		}
	}
}
