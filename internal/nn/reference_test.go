package nn

import (
	"math"

	"github.com/everest-project/everest/internal/xrand"
)

// The per-sample trainer the batch-major one replaced, kept verbatim as
// the reference every rewritten kernel is compared to bit for bit: one
// sample moves through each layer, one output is summed at a time, the
// MDN takes each logarithm where it needs it, math.Max is the library
// call, and Adam indexes a.m[i][j] in its inner loop. Nothing here is
// shared with the production kernels except Param and the layers'
// geometry fields, which newRef reads to build the mirror of a Model.

type refDense struct {
	in, out int
	w, b    *Param
	x       []float64
}

func (d *refDense) forward(x []float64) []float64 {
	d.x = x
	out := make([]float64, d.out)
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

func (d *refDense) backward(grad []float64) []float64 {
	dx := make([]float64, d.in)
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

// backwardParams is the old hidden-layer shortcut: parameter gradients
// only, units with an exactly-zero upstream gradient skipped.
func (d *refDense) backwardParams(grad []float64) {
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

func (d *refDense) params() []*Param { return []*Param{d.w, d.b} }

type refReLU struct{ mask []bool }

func (r *refReLU) forward(x []float64) []float64 {
	out := make([]float64, len(x))
	r.mask = make([]bool, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		}
	}
	return out
}

func (r *refReLU) backward(grad []float64) []float64 {
	dx := make([]float64, len(grad))
	for i, g := range grad {
		if r.mask[i] {
			dx[i] = g
		}
	}
	return dx
}

type refMDN struct {
	g             int
	dense         *refDense
	pi, mu, sigma []float64
}

func (m *refMDN) forward(feat []float64) {
	raw := m.dense.forward(feat)
	g := m.g
	alpha, muRaw, sRaw := raw[:g], raw[g:2*g], raw[2*g:]
	m.pi, m.mu, m.sigma = make([]float64, g), make([]float64, g), make([]float64, g)
	maxA := alpha[0]
	for _, a := range alpha[1:] {
		maxA = math.Max(maxA, a)
	}
	sum := 0.0
	for j, a := range alpha {
		m.pi[j] = math.Exp(a - maxA)
		sum += m.pi[j]
	}
	for j := 0; j < g; j++ {
		m.pi[j] /= sum
		m.mu[j] = muRaw[j]
		s := math.Max(sRaw[j], minLogSigma)
		m.sigma[j] = math.Exp(s)
	}
}

func (m *refMDN) nll(y float64) float64 {
	best := math.Inf(-1)
	lp := make([]float64, m.g)
	for j := 0; j < m.g; j++ {
		z := (y - m.mu[j]) / m.sigma[j]
		lp[j] = math.Log(m.pi[j]) - math.Log(m.sigma[j]) - 0.5*z*z - 0.5*math.Log(2*math.Pi)
		best = math.Max(best, lp[j])
	}
	s := 0.0
	for _, v := range lp {
		s += math.Exp(v - best)
	}
	return -(best + math.Log(s))
}

func (m *refMDN) backward(y float64) []float64 {
	g := m.g
	logNs := make([]float64, g)
	best := math.Inf(-1)
	for j := 0; j < g; j++ {
		z := (y - m.mu[j]) / m.sigma[j]
		logNs[j] = math.Log(m.pi[j]) - math.Log(m.sigma[j]) - 0.5*z*z
		best = math.Max(best, logNs[j])
	}
	var norm float64
	gamma := make([]float64, g)
	for j := 0; j < g; j++ {
		gamma[j] = math.Exp(logNs[j] - best)
		norm += gamma[j]
	}
	for j := range gamma {
		gamma[j] /= norm
	}
	grad := make([]float64, 3*g)
	for j := 0; j < g; j++ {
		grad[j] = m.pi[j] - gamma[j]
		grad[g+j] = gamma[j] * (m.mu[j] - y) / (m.sigma[j] * m.sigma[j])
		z := (y - m.mu[j]) / m.sigma[j]
		ds := gamma[j] * (1 - z*z)
		if math.Log(m.sigma[j]) <= minLogSigma+1e-12 {
			ds = 0
		}
		grad[2*g+j] = ds
	}
	return m.dense.backward(grad)
}

type refAdam struct {
	lr, beta1, beta2, eps float64
	params                []*Param
	m, v                  [][]float64
	t                     int
}

func newRefAdam(params []*Param, lr float64) *refAdam {
	a := &refAdam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, len(p.W)))
		a.v = append(a.v, make([]float64, len(p.W)))
	}
	return a
}

func (a *refAdam) step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for i, p := range a.params {
		for j, g := range p.G {
			a.m[i][j] = a.beta1*a.m[i][j] + (1-a.beta1)*g
			a.v[i][j] = a.beta2*a.v[i][j] + (1-a.beta2)*g*g
			mhat := a.m[i][j] / c1
			vhat := a.v[i][j] / c2
			p.W[j] -= a.lr * mhat / (math.Sqrt(vhat) + a.eps)
		}
		clear(p.G)
	}
}

// refModel mirrors a Model with reference layers over its own deep copy
// of the parameters.
type refModel struct {
	hidden *refDense
	relu   *refReLU
	head   *refMDN
}

func refDenseOf(d *Dense) *refDense {
	return &refDense{in: d.in, out: d.out, w: d.w.clone(), b: d.b.clone()}
}

// newRef copies m's current weights into a reference model.
func newRef(m *Model) *refModel {
	return &refModel{
		hidden: refDenseOf(m.hidden),
		relu:   &refReLU{},
		head:   &refMDN{g: m.head.g, dense: refDenseOf(m.head.dense)},
	}
}

// params lists the parameters in Model.params' order.
func (m *refModel) params() []*Param {
	return append(m.hidden.params(), m.head.dense.params()...)
}

// predict returns the flattened (π, μ, σ) of x's mixture.
func (m *refModel) predict(x []float64) []float64 {
	m.head.forward(m.relu.forward(m.hidden.forward(x)))
	out := make([]float64, 0, 3*m.head.g)
	for j := 0; j < m.head.g; j++ {
		out = append(out, m.head.pi[j], m.head.mu[j], m.head.sigma[j])
	}
	return out
}

// fit is the old Model.Fit loop: one sample at a time, a step every
// BatchSize samples and after a short last batch.
func (m *refModel) fit(xs [][]float64, ys []float64, cfg TrainConfig) float64 {
	cfg = cfg.withDefaults()
	opt := newRefAdam(m.params(), cfg.LearningRate)
	r := xrand.New(cfg.Seed).Split("nn/fit")
	var last float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := r.Perm(len(xs))
		total := 0.0
		inBatch := 0
		for _, i := range perm {
			m.head.forward(m.relu.forward(m.hidden.forward(xs[i])))
			total += m.head.nll(ys[i])
			m.hidden.backwardParams(m.relu.backward(m.head.backward(ys[i])))
			inBatch++
			if inBatch == cfg.BatchSize {
				opt.step()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.step()
		}
		last = total / float64(len(xs))
	}
	return last
}
