package nn

import (
	"math"

	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// MDN is the mixture-density output head of the CMDN (Fig. 2): a dense
// layer mapping the backbone's features to the parameters of g Gaussians —
// mixing logits α, means μ and log-standard-deviations s — trained by
// negative log-likelihood [23, 27].
//
// All per-call working memory (mixture parameters, responsibilities,
// gradients) lives in buffers sized once at construction, so Forward, NLL
// and Backward allocate nothing. The Mixture returned by Forward is owned
// by the head and valid until its next Forward.
type MDN struct {
	g     int
	dense *Dense

	// caches for NLL/Backward, sized g (lp/logNs/gamma) at construction.
	pi, mu, sigma []float64
	lp            []float64
	gamma         []float64
	grad          []float64 // 3g, Backward's head gradient
	mix           uncertain.Mixture
}

// minLogSigma floors σ to keep the likelihood finite on near-deterministic
// targets.
const minLogSigma = -4

// NewMDN creates a head with g mixture components over featIn features.
func NewMDN(featIn, g int, r *xrand.RNG) *MDN {
	m := &MDN{
		g:     g,
		dense: NewDense(featIn, 3*g, r),
		pi:    make([]float64, g),
		mu:    make([]float64, g),
		sigma: make([]float64, g),
		lp:    make([]float64, g),
		gamma: make([]float64, g),
		grad:  make([]float64, 3*g),
		mix:   make(uncertain.Mixture, g),
	}
	// Bias the initial log-sigmas to a moderate spread so early training
	// does not saturate, and spread the initial means across the
	// standardized-target range (roughly [-1.5, 4.5] for skewed counts)
	// so components specialize without parking at out-of-range values.
	for j := 0; j < g; j++ {
		m.dense.b.W[2*g+j] = 0.5
		if g > 1 {
			m.dense.b.W[g+j] = -1.5 + 6*float64(j)/float64(g-1)
		}
	}
	return m
}

// cloneForInference returns a head sharing m's trained weights with
// private scratch, safe for concurrent Forward/NLL against the original.
func (m *MDN) cloneForInference() *MDN {
	return &MDN{
		g:     m.g,
		dense: &Dense{in: m.dense.in, out: m.dense.out, w: m.dense.w, b: m.dense.b},
		pi:    make([]float64, m.g),
		mu:    make([]float64, m.g),
		sigma: make([]float64, m.g),
		lp:    make([]float64, m.g),
		gamma: make([]float64, m.g),
		grad:  make([]float64, 3*m.g),
		mix:   make(uncertain.Mixture, m.g),
	}
}

// clone returns a deep copy of the head: fresh dense parameters with
// the trained weights copied, private scratch. The clone may keep
// training independently of the original.
func (m *MDN) clone() *MDN {
	c := m.cloneForInference()
	c.dense.w = m.dense.w.clone()
	c.dense.b = m.dense.b.clone()
	return c
}

// Params returns the head's trainable parameters.
func (m *MDN) Params() []*Param { return m.dense.Params() }

// Forward computes the predicted mixture for a feature vector. The
// returned Mixture is owned by the head and valid until the next Forward;
// callers that retain it must copy.
func (m *MDN) Forward(feat []float64) uncertain.Mixture {
	raw := m.dense.Forward(feat)
	g := m.g
	alpha, muRaw, sRaw := raw[:g], raw[g:2*g], raw[2*g:]

	// Softmax over alpha (stable).
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
		m.mix[j] = uncertain.GaussianComponent{Weight: m.pi[j], Mean: m.mu[j], Sigma: m.sigma[j]}
	}
	return m.mix
}

// NLL returns the negative log-likelihood of target y under the mixture
// from the most recent Forward.
func (m *MDN) NLL(y float64) float64 {
	// logsumexp over log π_j + log N_j.
	best := math.Inf(-1)
	lp := m.lp
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

// Backward accumulates gradients of the NLL at target y (for the sample
// last passed to Forward) and returns dLoss/dFeatures.
func (m *MDN) Backward(y float64) []float64 {
	g := m.g
	// Responsibilities γ_j = π_j N_j / Σ π N (computed stably).
	logNs := m.lp
	best := math.Inf(-1)
	for j := 0; j < g; j++ {
		z := (y - m.mu[j]) / m.sigma[j]
		logNs[j] = math.Log(m.pi[j]) - math.Log(m.sigma[j]) - 0.5*z*z
		best = math.Max(best, logNs[j])
	}
	var norm float64
	gamma := m.gamma
	for j := 0; j < g; j++ {
		gamma[j] = math.Exp(logNs[j] - best)
		norm += gamma[j]
	}
	for j := range gamma {
		gamma[j] /= norm
	}

	grad := m.grad
	for j := 0; j < g; j++ {
		// dL/dα_j = π_j − γ_j (softmax + NLL).
		grad[j] = m.pi[j] - gamma[j]
		// dL/dμ_j = γ_j (μ_j − y)/σ_j².
		grad[g+j] = gamma[j] * (m.mu[j] - y) / (m.sigma[j] * m.sigma[j])
		// dL/ds_j = γ_j (1 − z²) with z = (y−μ)/σ; zero in the clamped
		// region.
		z := (y - m.mu[j]) / m.sigma[j]
		ds := gamma[j] * (1 - z*z)
		if math.Log(m.sigma[j]) <= minLogSigma+1e-12 {
			ds = 0 // σ is clamped: the forward pass is flat in s here
		}
		grad[2*g+j] = ds
	}
	return m.dense.Backward(grad)
}
