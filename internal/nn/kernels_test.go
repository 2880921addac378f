package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// kernelSpecials are the operands FuzzKernels mixes into its draws: signed
// zeros, the smallest and largest subnormals, infinities, values near
// 1e300 whose products overflow and whose reciprocals underflow, and NaN.
var kernelSpecials = []float64{
	0, negZero,
	5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
	math.Inf(1), math.Inf(-1),
	1e300, -1e300, 1.7e308, 1e-300,
	math.NaN(), 1, -1,
}

// kernelOperands draws a fuzz case's operands: normal draws over a wide
// range of exponents, with a special value wherever the case's bytes (as
// mixed with the seed's stream) say so.
type kernelOperands struct {
	r    *xrand.RNG
	spec []byte
	k    int
}

func (o *kernelOperands) next() float64 {
	o.k++
	if len(o.spec) > 0 {
		if b := o.spec[o.k%len(o.spec)] ^ byte(o.r.Uint64()); b%4 == 0 {
			return kernelSpecials[int(b>>2)%len(kernelSpecials)]
		}
	}
	return math.Ldexp(o.r.Norm(), int(o.r.Uint64()%80)-40)
}

// slice returns n operands in a slice with two guard values after them,
// which no kernel may write.
func (o *kernelOperands) slice(n int) []float64 {
	s := make([]float64, n+2)
	for i := range s {
		s[i] = o.next()
	}
	return s
}

// sameResult reports whether two kernel outputs agree: equal bits, or NaN
// on both sides (a NaN's payload depends on operand order, which the
// kernels do not promise).
func sameResult(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// sameResults compares whole slices, guards included, and fails the test
// at the first difference.
func sameResults(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameResult(got[i], want[i]) {
			where := fmt.Sprint(i)
			if i >= len(want)-2 {
				where = fmt.Sprintf("%d (a guard past the %d values)", i, len(want)-2)
			}
			t.Fatalf("%s[%s]: %v (%#x), Go kernel %v (%#x)", what, where,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// FuzzKernels: every kernel the trainer calls leaves, on every output, the
// bits the portable Go kernel leaves (NaN for NaN) — over lengths 0–130,
// odd and even, with signed zeros, subnormals, infinities, NaN and values
// near 1e300 among the operands, and Adam's steps before and after the
// first bias correction rounds to 1. On a build that uses the Go kernels
// (not amd64, or under -race) it compares them with themselves.
func FuzzKernels(f *testing.F) {
	for _, n := range []uint8{0, 1, 2, 3, 4, 5, 97, 130} {
		f.Add(n, uint64(n)+1, []byte{})
		f.Add(n, uint64(n)+7, []byte{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56})
	}
	f.Add(uint8(97), uint64(356), []byte{1, 2, 3, 5, 48})
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, spec []byte) {
		length := int(n) % 131
		o := &kernelOperands{r: xrand.New(seed), spec: spec}

		acc, xs := o.slice(length), [4][]float64{o.slice(length), o.slice(length), o.slice(length), o.slice(length)}
		c := [4]float64{o.next(), o.next(), o.next(), o.next()}
		got, want := slices.Clone(acc), slices.Clone(acc)
		accum4(got[:length], xs[0], xs[1], xs[2], xs[3], c[0], c[1], c[2], c[3])
		accum4Go(want[:length], xs[0], xs[1], xs[2], xs[3], c[0], c[1], c[2], c[3])
		sameResults(t, "accum4", got, want)

		got, want = slices.Clone(acc), slices.Clone(acc)
		accum1(got[:length], xs[0], c[0])
		accum1Go(want[:length], xs[0], c[0])
		sameResults(t, "accum1", got, want)

		// Four rows through a dense layer of 1–9 outputs (and inputs of
		// the case's length, at least 1).
		in, out := max(length, 1), 1+int(seed>>8%9)
		dw, db, x := o.slice(out*in), o.slice(out), o.slice(4*in)
		y := o.slice(4 * out)
		wy := slices.Clone(y)
		affine4(y, dw[:out*in], db[:out], x[:4*in])
		affine4Go(wy, dw[:out*in], db[:out], x[:4*in])
		sameResults(t, "affine4", y, wy)

		k := adamCoef{
			lr: o.next(), beta1: o.next(), ob1: o.next(), beta2: o.next(), ob2: o.next(), eps: o.next(),
			c1: o.next(), c2: o.next(), divC1: seed&1 == 0,
		}
		if seed&2 == 0 {
			// The optimizer's own constants, at step 1 or 356 + seed.
			step := 1.0
			if !k.divC1 {
				step = 356 + float64(seed%1000)
			}
			a := NewAdam(nil, 5e-3)
			k.lr, k.beta1, k.ob1, k.beta2, k.ob2, k.eps = a.lr, a.beta1, 1-a.beta1, a.beta2, 1-a.beta2, a.eps
			k.c1, k.c2 = 1-math.Pow(a.beta1, step), 1-math.Pow(a.beta2, step)
		}
		w, g, m, v := o.slice(length), o.slice(length), o.slice(length), o.slice(length)
		gw, gg, gm, gv := slices.Clone(w), slices.Clone(g), slices.Clone(m), slices.Clone(v)
		adamUpdate(gw, gg[:length], gm, gv, &k)
		adamUpdateGo(w, g[:length], m, v, &k)
		sameResults(t, "adam w", gw, w)
		sameResults(t, "adam g", gg, g)
		sameResults(t, "adam m", gm, m)
		sameResults(t, "adam v", gv, v)
	})
}
