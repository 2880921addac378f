package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) over a fixed parameter set.
type Adam struct {
	lr, beta1, beta2, eps float64
	params                []*Param
	m, v                  [][]float64
	t                     int
}

// NewAdam creates an optimizer with the usual defaults (β1=0.9, β2=0.999).
func NewAdam(params []*Param, lr float64) *Adam {
	total := 0
	for _, p := range params {
		total += len(p.W)
	}
	return newAdam(params, make([]float64, 2*total), lr)
}

// newAdam is NewAdam over moments, a zeroed block of twice the
// parameters' total length: a.m[i] and a.v[i] are views of it.
func newAdam(params []*Param, moments []float64, lr float64) *Adam {
	a := &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, params: params}
	views := make([][]float64, 2*len(params))
	a.m, a.v = views[:len(params)], views[len(params):]
	for i, p := range params {
		a.m[i], moments = moments[:len(p.W):len(p.W)], moments[len(p.W):]
		a.v[i], moments = moments[:len(p.W):len(p.W)], moments[len(p.W):]
	}
	return a
}

// Step applies one update from the accumulated gradients and clears each
// gradient as it consumes it: one adamUpdate kernel call per parameter
// tensor (a Model trains one tensor, Fit's view of its whole block).
// Every parameter is updated independently, by three divisions and a
// square root — what bounds the step, which is why the amd64 kernel takes
// two parameters per instruction. From the step on which the first bias
// correction c1 = 1 − β1^t rounds to exactly 1 (t = 356 for β1 = 0.9),
// mj / c1 is mj for every float64 and is not computed.
func (a *Adam) Step() {
	a.t++
	k := adamCoef{
		lr: a.lr, beta1: a.beta1, ob1: 1 - a.beta1, beta2: a.beta2, ob2: 1 - a.beta2, eps: a.eps,
		c1: 1 - math.Pow(a.beta1, float64(a.t)),
		c2: 1 - math.Pow(a.beta2, float64(a.t)),
	}
	k.divC1 = k.c1 != 1
	for i, p := range a.params {
		g := p.G
		adamUpdate(p.W[:len(g)], g, a.m[i][:len(g)], a.v[i][:len(g)], &k)
	}
}
