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
	a := &Adam{lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, params: params}
	total := 0
	for _, p := range params {
		total += len(p.W)
	}
	// One block holds every moment; a.m[i] and a.v[i] are views of it.
	moments := make([]float64, 2*total)
	views := make([][]float64, 2*len(params))
	a.m, a.v = views[:len(params)], views[len(params):]
	for i, p := range params {
		a.m[i], moments = moments[:len(p.W):len(p.W)], moments[len(p.W):]
		a.v[i], moments = moments[:len(p.W):len(p.W)], moments[len(p.W):]
	}
	return a
}

// Step applies one update from the accumulated gradients and clears each
// gradient as it consumes it. Every parameter is updated independently by
// the expression below, exactly as written — three divisions and a square
// root, which is what bounds the step (≈ 18 cycles per parameter, the
// divider's throughput); only the slice headers are hoisted. From the
// step on which the first bias correction c1 = 1 − β1^t rounds to exactly
// 1 (t = 356 for β1 = 0.9), mj / c1 is mj for every float64 and is not
// computed.
func (a *Adam) Step() {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	lr, beta1, beta2, eps := a.lr, a.beta1, a.beta2, a.eps
	for i, p := range a.params {
		grad := p.G
		w, m, v := p.W[:len(grad)], a.m[i][:len(grad)], a.v[i][:len(grad)]
		for j, g := range grad {
			mj := beta1*m[j] + (1-beta1)*g
			vj := beta2*v[j] + (1-beta2)*g*g
			m[j], v[j] = mj, vj
			mhat := mj
			if c1 != 1 {
				mhat = mj / c1
			}
			vhat := vj / c2
			w[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
			grad[j] = 0
		}
	}
}
