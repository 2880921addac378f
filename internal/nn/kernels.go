package nn

import "math"

// The trainer's three hot loops, as portable Go. On amd64 (outside the
// race detector) kernels_amd64.s implements them with SSE2, two sums per
// register; elsewhere kernels_generic.go calls these. Either way these
// loops are the reference: FuzzKernels compares the assembly's output bits
// with theirs.

// adamCoef holds one optimizer step's constants for adamUpdate.
type adamCoef struct {
	lr, beta1, ob1, beta2, ob2, eps float64 // ob1 = 1 − β1, ob2 = 1 − β2
	c1, c2                          float64 // the bias corrections 1 − βᵗ
	// divC1 says whether the first moment is divided by c1. Step clears
	// it from the step on which c1 rounds to exactly 1, where mj / c1 is
	// mj for every float64.
	divC1 bool
}

// adamUpdateGo applies one Adam update to every parameter of w from its
// gradient in g, moving the moments m and v, and clears g. w, m and v
// hold at least len(g) values.
func adamUpdateGo(w, g, m, v []float64, k *adamCoef) {
	lr, beta1, ob1, beta2, ob2, eps, c1, c2 := k.lr, k.beta1, k.ob1, k.beta2, k.ob2, k.eps, k.c1, k.c2
	divC1 := k.divC1
	w, m, v = w[:len(g)], m[:len(g)], v[:len(g)]
	for j, gj := range g {
		mj := beta1*m[j] + ob1*gj
		vj := beta2*v[j] + ob2*gj*gj
		m[j], v[j] = mj, vj
		mhat := mj
		if divC1 {
			mhat = mj / c1
		}
		vhat := vj / c2
		w[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
		g[j] = 0
	}
}

// accum4Go adds four scaled rows into acc, one term after another per
// element: acc[i] = (((acc[i] + g0·x0[i]) + g1·x1[i]) + g2·x2[i]) + g3·x3[i].
// x0…x3 hold at least len(acc) values.
func accum4Go(acc, x0, x1, x2, x3 []float64, g0, g1, g2, g3 float64) {
	x0, x1, x2, x3 = x0[:len(acc)], x1[:len(acc)], x2[:len(acc)], x3[:len(acc)]
	for i, a := range acc {
		a += g0 * x0[i]
		a += g1 * x1[i]
		a += g2 * x2[i]
		a += g3 * x3[i]
		acc[i] = a
	}
}

// accum1Go adds one scaled row into acc: acc[i] += c·x[i]. x holds at
// least len(acc) values.
func accum1Go(acc, x []float64, c float64) {
	x = x[:len(acc)]
	for i := range acc {
		acc[i] += c * x[i]
	}
}

// affine4Go computes four rows' activations at once: x holds four rows of
// len(x)/4 inputs, and row k's outputs go to y[k·len(b):][:len(b)], each
// y[k·len(b)+o] = b[o] + Σᵢ w[o·len(x)/4+i]·x[k·len(x)/4+i] with i
// ascending. y holds 4·len(b) values, w len(b) rows of len(x)/4 weights.
func affine4Go(y, w, b, x []float64) {
	in, out := len(x)/4, len(b)
	for k := 0; k < 4; k++ {
		affine(y[k*out:(k+1)*out], w, b, x[k*in:(k+1)*in])
	}
}
