// Package nn is a small from-scratch neural-network substrate built for
// the CMDN proxy scorer (§3.2): dense and convolutional layers, ReLU,
// max-pooling, an Adam optimizer and a mixture-density output head trained
// by negative log-likelihood. It is slice-based and deliberately free of
// cleverness — the reproduction needs a correct, deterministic trainer at
// sample counts of a few thousand, not a framework.
//
// Memory discipline: layers own reusable scratch buffers, so the
// steady-state forward/backward hot path allocates nothing. The slices
// returned by Forward and Backward are owned by the layer and remain valid
// only until its next call; callers that retain results must copy.
//
// Concurrency: a Layer or Model instance processes one sample at a time
// and is NOT safe for concurrent use. Model.CloneForInference returns a
// clone that shares the trained weights but owns private scratch, so N
// clones can run Forward/Predict on N goroutines as long as nobody trains
// concurrently.
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

func newParam(n int) *Param {
	return &Param{W: make([]float64, n), G: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// clone returns a deep copy: fresh tensors with the weights copied and
// the gradient accumulator cleared.
func (p *Param) clone() *Param {
	c := newParam(len(p.W))
	copy(c.W, p.W)
	return c
}

// Layer is a differentiable transform. Forward caches whatever Backward
// needs, so a Layer instance processes one sample at a time. Forward and
// Backward return layer-owned scratch, valid until the next call.
type Layer interface {
	// Forward maps the input activation to the output activation.
	Forward(x []float64) []float64
	// Backward takes dLoss/dOutput, accumulates parameter gradients and
	// returns dLoss/dInput.
	Backward(grad []float64) []float64
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutSize is the length of the output activation vector.
	OutSize() int
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
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// cloneLayerForInference returns a layer sharing l's trainable parameters
// but owning private activation scratch. All layer types defined in this
// package are supported; cloning an unknown Layer implementation panics.
func cloneLayerForInference(l Layer) Layer {
	switch v := l.(type) {
	case *Dense:
		return &Dense{in: v.in, out: v.out, w: v.w, b: v.b}
	case *ReLU:
		return NewReLU(v.n)
	case *Conv2D:
		return &Conv2D{inC: v.inC, inH: v.inH, inW: v.inW, outC: v.outC, k: v.k, w: v.w, b: v.b}
	case *MaxPool2D:
		return NewMaxPool2D(v.c, v.h, v.w)
	case *Sequential:
		layers := make([]Layer, len(v.layers))
		for i, l := range v.layers {
			layers[i] = cloneLayerForInference(l)
		}
		return &Sequential{layers: layers}
	default:
		panic(fmt.Sprintf("nn: cannot clone layer of type %T", l))
	}
}

// cloneLayerForTraining returns a deep copy of a layer: fresh parameter
// tensors with the trained weights copied, so the clone can keep
// training (warm-start fine-tuning) without mutating the original. All
// layer types defined in this package are supported; cloning an unknown
// Layer implementation panics.
func cloneLayerForTraining(l Layer) Layer {
	switch v := l.(type) {
	case *Dense:
		return &Dense{in: v.in, out: v.out, w: v.w.clone(), b: v.b.clone()}
	case *ReLU:
		return NewReLU(v.n)
	case *Conv2D:
		return &Conv2D{inC: v.inC, inH: v.inH, inW: v.inW, outC: v.outC, k: v.k, w: v.w.clone(), b: v.b.clone()}
	case *MaxPool2D:
		return NewMaxPool2D(v.c, v.h, v.w)
	case *Sequential:
		layers := make([]Layer, len(v.layers))
		for i, l := range v.layers {
			layers[i] = cloneLayerForTraining(l)
		}
		return &Sequential{layers: layers}
	default:
		panic(fmt.Sprintf("nn: cannot clone layer of type %T", l))
	}
}

// Dense is a fully connected layer: out = W·x + b.
type Dense struct {
	in, out int
	w, b    *Param
	x       []float64 // cached input
	fwd     []float64 // Forward scratch
	dx      []float64 // Backward scratch
}

// NewDense creates a dense layer with He-initialized weights.
func NewDense(in, out int, r *xrand.RNG) *Dense {
	d := &Dense{in: in, out: out, w: newParam(in * out), b: newParam(out)}
	std := math.Sqrt(2 / float64(in))
	for i := range d.w.W {
		d.w.W[i] = std * r.Norm()
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.in {
		panic(fmt.Sprintf("nn: Dense input %d, want %d", len(x), d.in))
	}
	d.x = x
	d.fwd = scratch(d.fwd, d.out)
	out := d.fwd
	for o := 0; o < d.out; o++ {
		s := d.b.W[o]
		row := d.w.W[o*d.in : (o+1)*d.in]
		for i, xi := range x {
			s += row[i] * xi
		}
		out[o] = s
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad []float64) []float64 {
	d.dx = zeroed(d.dx, d.in)
	dx := d.dx
	for o := 0; o < d.out; o++ {
		g := grad[o]
		d.b.G[o] += g
		row := d.w.W[o*d.in : (o+1)*d.in]
		growRow := d.w.G[o*d.in : (o+1)*d.in]
		for i := range row {
			growRow[i] += g * d.x[i]
			dx[i] += g * row[i]
		}
	}
	return dx
}

// backwardParams is Backward for a caller that discards dLoss/dInput
// (the first layer under Fit): it accumulates the parameter gradients
// only — the input gradient is a third of Backward's flops — and skips
// units whose upstream gradient is exactly zero, which is every unit
// behind a closed ReLU. The accumulated gradients are bit-identical to
// Backward's: an accumulator starts at +0 and sums in round-to-nearest
// never produce -0, so adding the skipped 0·x (x finite) changes no bit.
func (d *Dense) backwardParams(grad []float64) {
	for o := 0; o < d.out; o++ {
		g := grad[o]
		if g == 0 {
			continue
		}
		d.b.G[o] += g
		growRow := d.w.G[o*d.in : (o+1)*d.in]
		for i, xi := range d.x {
			growRow[i] += g * xi
		}
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// OutSize implements Layer.
func (d *Dense) OutSize() int { return d.out }

// ReLU is the rectified linear activation.
type ReLU struct {
	n    int
	mask []bool
	fwd  []float64
	dx   []float64
}

// NewReLU creates a ReLU over n units.
func NewReLU(n int) *ReLU { return &ReLU{n: n, mask: make([]bool, n)} }

// Forward implements Layer.
func (r *ReLU) Forward(x []float64) []float64 {
	r.fwd = scratch(r.fwd, len(x))
	out := r.fwd
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		} else {
			out[i] = 0
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(grad []float64) []float64 {
	r.dx = scratch(r.dx, len(grad))
	dx := r.dx
	for i, g := range grad {
		if r.mask[i] {
			dx[i] = g
		} else {
			dx[i] = 0
		}
	}
	return dx
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutSize implements Layer.
func (r *ReLU) OutSize() int { return r.n }

// Sequential chains layers.
type Sequential struct {
	layers []Layer
}

// NewSequential builds a chain.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{layers: layers} }

// Forward implements Layer.
func (s *Sequential) Forward(x []float64) []float64 {
	for _, l := range s.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad []float64) []float64 {
	for i := len(s.layers) - 1; i >= 0; i-- {
		grad = s.layers[i].Backward(grad)
	}
	return grad
}

// backwardParams backpropagates grad through l for a caller that has no
// use for dLoss/dInput: the layer at the bottom of l skips computing it
// when it can (a Dense), every other layer runs its ordinary Backward.
func backwardParams(l Layer, grad []float64) {
	switch v := l.(type) {
	case *Sequential:
		for i := len(v.layers) - 1; i > 0; i-- {
			grad = v.layers[i].Backward(grad)
		}
		backwardParams(v.layers[0], grad)
	case *Dense:
		v.backwardParams(grad)
	default:
		l.Backward(grad)
	}
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutSize implements Layer.
func (s *Sequential) OutSize() int { return s.layers[len(s.layers)-1].OutSize() }
