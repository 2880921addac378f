//go:build amd64 && !race

package nn

// SSE2 kernels in kernels_amd64.s: the operations of the Go kernels in
// kernels.go (adamUpdateGo for adamUpdate, and so on), two elements per
// instruction.
// Each lane holds its own sum, so every result has the bits of the Go
// loop (FuzzKernels). SSE2 is part of the amd64 baseline (GOAMD64=v1), so
// nothing is detected at run time. Callers pass the lengths the Go
// kernels document: the assembly reads len(g) or len(acc) values of every
// operand.

//go:noescape
func adamUpdate(w, g, m, v []float64, k *adamCoef)

//go:noescape
func accum4(acc, x0, x1, x2, x3 []float64, g0, g1, g2, g3 float64)

//go:noescape
func accum1(acc, x []float64, c float64)

//go:noescape
func affine4(y, w, b, x []float64)
