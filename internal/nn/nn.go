// Package nn is the small from-scratch neural network behind the CMDN
// proxy scorer (§3.2). It has one model and one trainer: a dense hidden
// layer with ReLU activations feeding a mixture-density output head,
// trained by minibatch Adam on the negative log-likelihood. There are no
// convolutional or max-pooling layers and no layer interface: the CMDN's
// backbone is the fixed feature pyramid that package cmdn extracts. The
// package is slice-based and imports nothing outside this module — the
// reproduction needs a correct, deterministic trainer at sample counts of
// a few thousand, not a framework.
//
// Batch-major: a minibatch, not a sample, moves through each layer.
// Activations are row-major [n][size] in one slice, Fit gathers each
// minibatch's rows into such a slice, and Predict is the n = 1 case of the
// same kernels. Every row of a batch is computed exactly as it would be
// alone, and a parameter's gradient accumulator receives the batch's
// terms in row order, so a layer's Forward/Backward over n rows leaves the
// bits that n one-row calls in sequence would.
//
// Summation order is part of the contract. Every result is pinned bit for
// bit (the goldens, the Procs-independence tests, the per-sample reference
// trainer in reference_test.go), so a kernel may change which sums are in
// flight together but never the order of the terms inside one sum:
//
//   - an activation is b + Σᵢ wᵢxᵢ with i ascending;
//   - an input gradient is 0 + Σₒ gₒwₒᵢ with o ascending;
//   - a parameter-gradient accumulator receives its terms in sample order.
//
// Floating-point addition is not associative, but two different sums share
// no state: computing four of them interleaved, or one sample's after
// another's, yields the bits of computing each alone. That is the whole
// licence the kernels here use. Nothing is re-associated, fused (no FMA)
// or narrowed to float32.
//
// On amd64 the trainer's three hot loops are SSE2 assembly
// (kernels_amd64.s): Adam's update, the backward's accumulate of four
// scaled rows into a gradient row, and the forward over four batch rows.
// A packed instruction works on two lanes, and each lane is a sum the Go
// loop already computes on its own — Adam's parameter j and j+1, gradient
// elements i and i+1, or output o of two batch rows — fed the same
// operands in the same order. Packing adds lanes, not terms, so the bits
// are the Go loop's; the Go loops in kernels.go are the portable kernels
// (other architectures, and amd64 under -race, whose detector does not
// see assembly) and the reference FuzzKernels holds the assembly to.
//
// Memory discipline: layers own reusable scratch buffers sized by the
// largest batch seen, so the steady-state forward/backward hot path
// allocates nothing. The slices returned by Forward and Backward are owned
// by the layer and remain valid only until its next call; callers that
// retain results must copy. A layer never writes to its input.
//
// Concurrency: a Model processes one batch at a time and is NOT safe for
// concurrent use. Model.CloneForInference returns a clone that shares the
// trained weights but owns private scratch, so N clones can Predict on N
// goroutines as long as nobody trains concurrently.
package nn

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/xrand"
)

// Param is one trainable tensor with its gradient accumulator.
type Param struct {
	// W holds the weights.
	W []float64
	// G accumulates dLoss/dW between optimizer steps.
	G []float64
}

// newParam returns n zero weights and their gradients, in one allocation.
func newParam(n int) *Param {
	buf := make([]float64, 2*n)
	return &Param{W: buf[:n:n], G: buf[n:]}
}

// take returns a Param over p's first n weights and gradients and
// advances p past them.
func (p *Param) take(n int) *Param {
	v := &Param{W: p.W[:n:n], G: p.G[:n:n]}
	p.W, p.G = p.W[n:], p.G[n:]
	return v
}

// scratch returns buf resized to n, reusing its backing array when able.
func scratch(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// zeroed returns buf resized to n with every element cleared.
func zeroed(buf []float64, n int) []float64 {
	buf = scratch(buf, n)
	clear(buf)
	return buf
}

// rows returns how many samples of the given size x holds, panicking on
// an empty or ragged batch.
func rows(layer string, x []float64, size int) int {
	if len(x) == 0 || len(x)%size != 0 {
		panic(fmt.Sprintf("nn: %s input %d, want a multiple of %d", layer, len(x), size))
	}
	return len(x) / size
}

// Dense is a fully connected layer: out = W·x + b per row.
type Dense struct {
	in, out int
	w, b    *Param
	x       []float64 // cached input batch
	fwd     []float64 // Forward scratch, n·out
	dx      []float64 // Backward scratch, n·in
	nz      []int     // Backward scratch: the batch rows whose gradient for one unit is nonzero
}

// NewDense creates a dense layer with He-initialized weights.
func NewDense(in, out int, r *xrand.RNG) *Dense {
	d := denseOver(in, out, newParam(denseSize(in, out)))
	d.heInit(r)
	return d
}

// denseSize is how many parameters a dense layer holds: its weights, then
// its biases.
func denseSize(in, out int) int { return (in + 1) * out }

// denseOver lays a dense layer's weights and then its biases over the
// front of block, which it advances past them.
func denseOver(in, out int, block *Param) *Dense {
	w := block.take(in * out)
	return &Dense{in: in, out: out, w: w, b: block.take(out)}
}

// heInit draws the weights from r in index order, scaled for He
// initialization.
func (d *Dense) heInit(r *xrand.RNG) {
	std := math.Sqrt(2 / float64(d.in))
	for i := range d.w.W {
		d.w.W[i] = std * r.Norm()
	}
}

// Forward maps a batch of rows to their activations: four rows at a time
// through affine4 (on amd64 each of its registers holds one output of two
// rows), then one affine call per row left over — Predict's single row
// among them.
func (d *Dense) Forward(x []float64) []float64 {
	in, out := d.in, d.out
	n := rows("Dense", x, in)
	d.x = x
	d.fwd = scratch(d.fwd, n*out)
	s := 0
	for ; s+4 <= n; s += 4 {
		affine4(d.fwd[s*out:(s+4)*out], d.w.W[:out*in], d.b.W[:out], x[s*in:(s+4)*in])
	}
	for ; s < n; s++ {
		affine(d.fwd[s*out:(s+1)*out], d.w.W, d.b.W, x[s*in:(s+1)*in])
	}
	return d.fwd
}

// affine computes y[o] = b[o] + Σᵢ w[o·len(x)+i]·x[i], each sum taken in
// index order, four outputs per pass over x and then one at a time.
func affine(y, w, b, x []float64) {
	in := len(x)
	o := 0
	for ; o+4 <= len(y); o += 4 {
		y[o], y[o+1], y[o+2], y[o+3] = dot4(w[o*in:(o+4)*in], x, b[o], b[o+1], b[o+2], b[o+3])
	}
	for ; o < len(y); o++ {
		s := b[o]
		row := w[o*in:][:len(x)]
		for i, xi := range x {
			s += row[i] * xi
		}
		y[o] = s
	}
}

// dot4 returns sₖ + Σᵢ w[k·len(x)+i]·x[i] for the four consecutive weight
// rows in w, each sum taken in index order. The four accumulators are
// independent, so their floating-point add chains overlap where one
// output at a time would wait out every add's latency; and since no term
// moves between sums, each result has the bits of the one-row loop. (A
// function of its own so the loop's few live values all stay in
// registers.)
func dot4(w, x []float64, s0, s1, s2, s3 float64) (float64, float64, float64, float64) {
	n := len(x)
	w0, w1, w2, w3 := w[:len(x)], w[n:][:len(x)], w[2*n:][:len(x)], w[3*n:][:len(x)]
	for i, xi := range x {
		s0 += w0[i] * xi
		s1 += w1[i] * xi
		s2 += w2[i] * xi
		s3 += w3[i] * xi
	}
	return s0, s1, s2, s3
}

// Backward takes dLoss/dOutput for the batch last passed to Forward and
// accumulates the parameter gradients. With wantInput it returns
// dLoss/dInput; without — the hidden layer under Fit, whose input gradient
// nobody reads — it skips that work and returns nil.
//
// Parameter gradients: unit o's accumulators G[o][·] and b.G[o] receive
// g·x[s] for the batch's rows s in ascending order — the order of n
// per-sample calls — four rows per pass over the accumulator row, each
// element adding its four terms one after another. A term whose upstream
// gradient is exactly zero (every unit behind a closed ReLU, about half
// of them) is skipped: an accumulator starts at +0 and sums in
// round-to-nearest never produce −0, so adding the skipped 0·x (x finite)
// would change no bit.
//
// Input gradients: dx[s][i] = 0 + Σₒ g[s][o]·w[o][i] with o ascending, four
// weight rows per pass, again one add after another per element.
func (d *Dense) Backward(grad []float64, wantInput bool) []float64 {
	in, out := d.in, d.out
	n := rows("Dense gradient", grad, out)
	x := d.x
	if cap(d.nz) < n {
		d.nz = make([]int, n)
	}
	for o := 0; o < out; o++ {
		nz := d.nz[:0]
		bias := d.b.G[o]
		for s := 0; s < n; s++ {
			if g := grad[s*out+o]; g != 0 {
				bias += g
				nz = append(nz, s)
			}
		}
		d.b.G[o] = bias
		acc := d.w.G[o*in : (o+1)*in]
		j := 0
		for ; j+4 <= len(nz); j += 4 {
			s0, s1, s2, s3 := nz[j], nz[j+1], nz[j+2], nz[j+3]
			accum4(acc, x[s0*in:][:len(acc)], x[s1*in:][:len(acc)], x[s2*in:][:len(acc)], x[s3*in:][:len(acc)],
				grad[s0*out+o], grad[s1*out+o], grad[s2*out+o], grad[s3*out+o])
		}
		for _, s := range nz[j:] {
			accum1(acc, x[s*in:][:len(acc)], grad[s*out+o])
		}
	}
	if !wantInput {
		return nil
	}
	d.dx = zeroed(d.dx, n*in)
	w := d.w.W
	for s := 0; s < n; s++ {
		dx := d.dx[s*in : (s+1)*in]
		g := grad[s*out : (s+1)*out]
		o := 0
		for ; o+4 <= out; o += 4 {
			accum4(dx, w[o*in:][:len(dx)], w[(o+1)*in:][:len(dx)], w[(o+2)*in:][:len(dx)], w[(o+3)*in:][:len(dx)],
				g[o], g[o+1], g[o+2], g[o+3])
		}
		for ; o < out; o++ {
			accum1(dx, w[o*in:][:len(dx)], g[o])
		}
	}
	return d.dx
}

// shared returns a layer over d's parameters with private scratch.
func (d *Dense) shared() *Dense { return &Dense{in: d.in, out: d.out, w: d.w, b: d.b} }

// ReLU is the rectified linear activation. It is elementwise, so a batch
// is just a longer vector.
type ReLU struct {
	fwd []float64
	dx  []float64
}

// Forward rectifies x.
func (r *ReLU) Forward(x []float64) []float64 {
	r.fwd = scratch(r.fwd, len(x))
	out := r.fwd
	for i, v := range x {
		if v > 0 {
			out[i] = v
		} else {
			out[i] = 0
		}
	}
	return out
}

// Backward returns dLoss/dInput for the batch last passed to Forward. A
// unit was open exactly when its cached output is positive, so the output
// doubles as the mask.
func (r *ReLU) Backward(grad []float64) []float64 {
	r.dx = scratch(r.dx, len(grad))
	dx := r.dx
	out := r.fwd[:len(grad)]
	for i, g := range grad {
		if out[i] > 0 {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}
