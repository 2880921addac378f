package nn

import (
	"math"

	"github.com/everest-project/everest/internal/xrand"
)

// Conv2D is a 3×3 same-padding convolution over channel-major (C,H,W)
// activations — the building block of the paper's CMDN backbone (Fig. 2:
// five 3×3 conv layers, each followed by 2×2 max-pooling).
type Conv2D struct {
	inC, inH, inW int
	outC          int
	k             int
	w, b          *Param
	x             []float64
	fwd           []float64
	din           []float64
}

// NewConv2D creates a conv layer with He-initialized 3×3 kernels.
func NewConv2D(inC, inH, inW, outC int, r *xrand.RNG) *Conv2D {
	const k = 3
	c := &Conv2D{
		inC: inC, inH: inH, inW: inW, outC: outC, k: k,
		w: newParam(outC * inC * k * k),
		b: newParam(outC),
	}
	std := math.Sqrt(2 / float64(inC*k*k))
	for i := range c.w.W {
		c.w.W[i] = std * r.Norm()
	}
	return c
}

func (c *Conv2D) inSize() int { return c.inC * c.inH * c.inW }

// OutSize implements Layer.
func (c *Conv2D) OutSize() int { return c.outC * c.inH * c.inW }

// Forward implements Layer: the batch's samples are convolved one after
// another.
func (c *Conv2D) Forward(x []float64) []float64 {
	in, out := c.inSize(), c.OutSize()
	n := rows("Conv2D", x, in)
	c.x = x
	c.fwd = scratch(c.fwd, n*out)
	for s := 0; s < n; s++ {
		c.forwardSample(c.fwd[s*out:(s+1)*out], x[s*in:(s+1)*in])
	}
	return c.fwd
}

func (c *Conv2D) forwardSample(out, x []float64) {
	pad := c.k / 2
	for oc := 0; oc < c.outC; oc++ {
		for y := 0; y < c.inH; y++ {
			for xx := 0; xx < c.inW; xx++ {
				s := c.b.W[oc]
				for ic := 0; ic < c.inC; ic++ {
					for dy := 0; dy < c.k; dy++ {
						sy := y + dy - pad
						if sy < 0 || sy >= c.inH {
							continue
						}
						for dx := 0; dx < c.k; dx++ {
							sx := xx + dx - pad
							if sx < 0 || sx >= c.inW {
								continue
							}
							s += c.w.W[((oc*c.inC+ic)*c.k+dy)*c.k+dx] * x[(ic*c.inH+sy)*c.inW+sx]
						}
					}
				}
				out[(oc*c.inH+y)*c.inW+xx] = s
			}
		}
	}
}

// Backward implements Layer. Samples are visited in batch order and each
// in raster order, so every kernel-weight accumulator receives its terms
// in the order of per-sample calls. Without wantInput (the first stage of
// the backbone) the input gradient's share of the inner loop is skipped.
func (c *Conv2D) Backward(grad []float64, wantInput bool) []float64 {
	in, out := c.inSize(), c.OutSize()
	n := rows("Conv2D gradient", grad, out)
	var din []float64
	if wantInput {
		c.din = zeroed(c.din, n*in)
		din = c.din
	}
	for s := 0; s < n; s++ {
		var dinRow []float64
		if wantInput {
			dinRow = din[s*in : (s+1)*in]
		}
		c.backwardSample(dinRow, grad[s*out:(s+1)*out], c.x[s*in:(s+1)*in])
	}
	return din
}

// backwardSample accumulates one sample's parameter gradients and, when
// din is non-nil (and zeroed), its input gradient.
func (c *Conv2D) backwardSample(din, grad, x []float64) {
	pad := c.k / 2
	for oc := 0; oc < c.outC; oc++ {
		for y := 0; y < c.inH; y++ {
			for xx := 0; xx < c.inW; xx++ {
				g := grad[(oc*c.inH+y)*c.inW+xx]
				if g == 0 {
					continue
				}
				c.b.G[oc] += g
				for ic := 0; ic < c.inC; ic++ {
					for dy := 0; dy < c.k; dy++ {
						sy := y + dy - pad
						if sy < 0 || sy >= c.inH {
							continue
						}
						for dx := 0; dx < c.k; dx++ {
							sx := xx + dx - pad
							if sx < 0 || sx >= c.inW {
								continue
							}
							wi := ((oc*c.inC+ic)*c.k+dy)*c.k + dx
							xi := (ic*c.inH+sy)*c.inW + sx
							c.w.G[wi] += g * x[xi]
							if din != nil {
								din[xi] += g * c.w.W[wi]
							}
						}
					}
				}
			}
		}
	}
}

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// MaxPool2D is a 2×2 stride-2 max pool over (C,H,W) activations.
type MaxPool2D struct {
	c, h, w int   // input geometry; h and w must be even
	argmax  []int // per output of the batch, its winner's index in the batch input
	fwd     []float64
	dx      []float64
}

// NewMaxPool2D creates a pool layer for the given input geometry.
func NewMaxPool2D(c, h, w int) *MaxPool2D {
	if h%2 != 0 || w%2 != 0 {
		panic("nn: MaxPool2D requires even input dimensions")
	}
	return &MaxPool2D{c: c, h: h, w: w}
}

// OutSize implements Layer.
func (m *MaxPool2D) OutSize() int { return m.c * (m.h / 2) * (m.w / 2) }

// Forward implements Layer. Channels are independent, so a batch of n
// samples pools as one sample of n·c channels.
func (m *MaxPool2D) Forward(x []float64) []float64 {
	oh, ow := m.h/2, m.w/2
	chans := rows("MaxPool2D", x, m.c*m.h*m.w) * m.c
	m.fwd = scratch(m.fwd, chans*oh*ow)
	if cap(m.argmax) < len(m.fwd) {
		m.argmax = make([]int, len(m.fwd))
	}
	m.argmax = m.argmax[:len(m.fwd)]
	out := m.fwd
	for c := 0; c < chans; c++ {
		for y := 0; y < oh; y++ {
			for xx := 0; xx < ow; xx++ {
				best := math.Inf(-1)
				bestI := -1
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						i := (c*m.h+2*y+dy)*m.w + 2*xx + dx
						if x[i] > best {
							best = x[i]
							bestI = i
						}
					}
				}
				o := (c*oh+y)*ow + xx
				out[o] = best
				m.argmax[o] = bestI
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad []float64, _ bool) []float64 {
	m.dx = zeroed(m.dx, len(grad)*4)
	dx := m.dx
	for o, g := range grad {
		dx[m.argmax[o]] += g
	}
	return dx
}

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }
