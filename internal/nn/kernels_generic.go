//go:build !amd64 || race

package nn

// The portable kernels: everywhere but amd64, and on amd64 under the race
// detector, which does not see the assembly's memory accesses.

func adamUpdate(w, g, m, v []float64, k *adamCoef) { adamUpdateGo(w, g, m, v, k) }

func accum4(acc, x0, x1, x2, x3 []float64, g0, g1, g2, g3 float64) {
	accum4Go(acc, x0, x1, x2, x3, g0, g1, g2, g3)
}

func accum1(acc, x []float64, c float64) { accum1Go(acc, x, c) }

func affine4(y, w, b, x []float64) { affine4Go(y, w, b, x) }
