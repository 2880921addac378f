package nn

import (
	"math"

	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// MDN is the mixture-density output head of the CMDN (Fig. 2): a dense
// layer mapping the hidden layer's activations to the parameters of g
// Gaussians — mixing logits α, means μ and log-standard-deviations s —
// trained by negative log-likelihood [23, 27].
//
// Like the layers it is batch-shaped: Forward takes n rows of features and
// keeps every row's mixture parameters (and log π, log σ, each taken once)
// for NLL and Backward. All working memory lives in buffers sized by the
// largest batch seen, so steady-state Forward, NLL and Backward allocate
// nothing. The Mixture returned by Forward is owned by the head and valid
// until its next Forward.
type MDN struct {
	g     int
	dense *Dense

	// Row-major [n][g] caches for NLL/Backward: five views of cache.
	pi, mu, sigma []float64
	logPi, logSig []float64
	cache         []float64
	lp, gamma, z  []float64 // g each: one row's log π_j N_j, responsibilities, (y−μ_j)/σ_j
	grad          []float64 // [n][3g], Backward's head gradient
	mix           uncertain.Mixture
}

// minLogSigma floors σ to keep the likelihood finite on near-deterministic
// targets.
const minLogSigma = -4

// halfLog2Pi is the Gaussian log-density's constant term.
var halfLog2Pi = 0.5 * math.Log(2*math.Pi)

// NewMDN creates a head with g mixture components over featIn features.
func NewMDN(featIn, g int, r *xrand.RNG) *MDN {
	m := newMDN(g, NewDense(featIn, 3*g, r))
	m.initBiases()
	return m
}

// initBiases biases the initial log-sigmas to a moderate spread so early
// training does not saturate, and spreads the initial means across the
// standardized-target range (roughly [-1.5, 4.5] for skewed counts) so
// components specialize without parking at out-of-range values.
func (m *MDN) initBiases() {
	g := m.g
	for j := 0; j < g; j++ {
		m.dense.b.W[2*g+j] = 0.5
		if g > 1 {
			m.dense.b.W[g+j] = -1.5 + 6*float64(j)/float64(g-1)
		}
	}
}

// newMDN wraps a dense layer of 3g outputs with private scratch.
func newMDN(g int, dense *Dense) *MDN {
	rowScratch := make([]float64, 3*g)
	return &MDN{
		g: g, dense: dense,
		lp: rowScratch[:g], gamma: rowScratch[g : 2*g], z: rowScratch[2*g:],
		mix: make(uncertain.Mixture, g),
	}
}

// cloneForInference returns a head sharing m's trained weights with
// private scratch, safe for concurrent Forward/NLL against the original.
func (m *MDN) cloneForInference() *MDN { return newMDN(m.g, m.dense.shared()) }

// Forward computes the predicted mixtures for n rows of features and
// returns the first row's — the whole answer for Predict's n = 1. The
// returned Mixture is owned by the head and valid until the next Forward;
// callers that retain it must copy.
func (m *MDN) Forward(feat []float64) uncertain.Mixture {
	raw := m.dense.Forward(feat)
	g := m.g
	n := len(raw) / (3 * g)
	m.cache = scratch(m.cache, 5*n*g)
	m.pi, m.mu, m.sigma = m.cache[:n*g], m.cache[n*g:2*n*g], m.cache[2*n*g:3*n*g]
	m.logPi, m.logSig = m.cache[3*n*g:4*n*g], m.cache[4*n*g:]
	for s := 0; s < n; s++ {
		row := raw[s*3*g : (s+1)*3*g]
		alpha, sRaw := row[:g], row[2*g:]
		pi, sigma := m.pi[s*g:(s+1)*g], m.sigma[s*g:(s+1)*g]
		logPi, logSig := m.logPi[s*g:(s+1)*g], m.logSig[s*g:(s+1)*g]
		copy(m.mu[s*g:(s+1)*g], row[g:2*g])

		// Softmax over alpha (stable).
		maxA := alpha[0]
		for _, a := range alpha[1:] {
			maxA = max(maxA, a)
		}
		sum := 0.0
		for j, a := range alpha {
			pi[j] = math.Exp(a - maxA)
			sum += pi[j]
		}
		for j := range pi {
			pi[j] /= sum
			logPi[j] = math.Log(pi[j])
			sigma[j] = math.Exp(max(sRaw[j], minLogSigma))
			logSig[j] = math.Log(sigma[j])
		}
	}
	for j := range m.mix {
		m.mix[j] = uncertain.GaussianComponent{Weight: m.pi[j], Mean: m.mu[j], Sigma: m.sigma[j]}
	}
	return m.mix
}

// NLL returns the negative log-likelihood of target y under the first
// row's mixture from the most recent Forward.
func (m *MDN) NLL(y float64) float64 { return m.rowNLL(0, y) }

// rowNLL is the negative log-likelihood of y under row s's mixture.
func (m *MDN) rowNLL(s int, y float64) float64 {
	// logsumexp over log π_j + log N_j.
	best := math.Inf(-1)
	lp := m.lp
	for j, k := 0, s*m.g; j < m.g; j, k = j+1, k+1 {
		z := (y - m.mu[k]) / m.sigma[k]
		lp[j] = m.logPi[k] - m.logSig[k] - 0.5*z*z - halfLog2Pi
		best = max(best, lp[j])
	}
	sum := 0.0
	for _, v := range lp {
		sum += math.Exp(v - best)
	}
	return -(best + math.Log(sum))
}

// Backward accumulates gradients of the NLL at targets ys (one per row of
// the batch last passed to Forward) and returns dLoss/dFeatures.
func (m *MDN) Backward(ys []float64) []float64 {
	g := m.g
	m.grad = scratch(m.grad, len(ys)*3*g)
	for s, y := range ys {
		pi, mu, sigma := m.pi[s*g:(s+1)*g], m.mu[s*g:(s+1)*g], m.sigma[s*g:(s+1)*g]
		logPi, logSig := m.logPi[s*g:(s+1)*g], m.logSig[s*g:(s+1)*g]
		grad := m.grad[s*3*g : (s+1)*3*g]
		// Responsibilities γ_j = π_j N_j / Σ π N (computed stably).
		logNs, gamma, zs := m.lp, m.gamma, m.z
		best := math.Inf(-1)
		for j := range logNs {
			z := (y - mu[j]) / sigma[j]
			zs[j] = z
			logNs[j] = logPi[j] - logSig[j] - 0.5*z*z
			best = max(best, logNs[j])
		}
		var norm float64
		for j := range gamma {
			gamma[j] = math.Exp(logNs[j] - best)
			norm += gamma[j]
		}
		for j := range gamma {
			gj, z := gamma[j]/norm, zs[j]
			// dL/dα_j = π_j − γ_j (softmax + NLL).
			grad[j] = pi[j] - gj
			// dL/dμ_j = γ_j (μ_j − y)/σ_j².
			grad[g+j] = gj * (mu[j] - y) / (sigma[j] * sigma[j])
			// dL/ds_j = γ_j (1 − z²); zero in the clamped region, where
			// the forward pass is flat in s.
			ds := gj * (1 - z*z)
			if logSig[j] <= minLogSigma+1e-12 {
				ds = 0
			}
			grad[2*g+j] = ds
		}
	}
	return m.dense.Backward(m.grad, true)
}
