package uncertain

import (
	"fmt"
	"math"
)

// GaussianComponent is one component of a Gaussian mixture emitted by the
// CMDN's MDN layer: weight π, mean μ and standard deviation σ.
type GaussianComponent struct {
	Weight float64
	Mean   float64
	Sigma  float64
}

// Mixture is a Gaussian mixture density over raw (unquantized) scores.
type Mixture []GaussianComponent

// Mean returns the mixture mean Σ π_j μ_j (the "CMDN-only" baseline ranks
// by this value).
func (m Mixture) Mean() float64 {
	s := 0.0
	for _, c := range m {
		s += c.Weight * c.Mean
	}
	return s
}

// Variance returns the total mixture variance Σ π_j (σ_j² + μ_j²) − μ̄²,
// the quantity used for window aggregation in Eq. 9.
func (m Mixture) Variance() float64 {
	mu := m.Mean()
	s := 0.0
	for _, c := range m {
		s += c.Weight * (c.Sigma*c.Sigma + c.Mean*c.Mean)
	}
	v := s - mu*mu
	if v < 0 {
		v = 0 // float drift on near-degenerate mixtures
	}
	return v
}

// Validate checks that weights are a distribution and sigmas are positive.
func (m Mixture) Validate() error {
	if len(m) == 0 {
		return fmt.Errorf("uncertain: empty mixture")
	}
	sum := 0.0
	for _, c := range m {
		if c.Weight < 0 || math.IsNaN(c.Weight) {
			return fmt.Errorf("uncertain: invalid weight %v", c.Weight)
		}
		if c.Sigma <= 0 || math.IsNaN(c.Sigma) {
			return fmt.Errorf("uncertain: invalid sigma %v", c.Sigma)
		}
		sum += c.Weight
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("uncertain: weights sum to %v", sum)
	}
	return nil
}

// QuantizeOptions controls mixture quantization (§3.2).
type QuantizeOptions struct {
	// Step is the quantization step size. Counting scoring functions use 1;
	// other scoring functions must provide it when the UDF is defined.
	Step float64
	// MinLevel clamps the support from below; counting queries use 0 so the
	// support is the non-negative integers. Use math.MinInt to disable.
	MinLevel int
	// MaxLevel clamps the support from above. Use math.MaxInt to disable.
	MaxLevel int
	// TruncSigma is the truncation radius in standard deviations. The paper
	// follows Chopin [17] and truncates at 3σ, redistributing the tail mass
	// evenly over the retained buckets. Zero means 3.
	TruncSigma float64
}

// DefaultCountingOptions returns the quantization used by the default
// object-counting UDF: unit step, non-negative support, 3σ truncation.
func DefaultCountingOptions() QuantizeOptions {
	return QuantizeOptions{Step: 1, MinLevel: 0, MaxLevel: math.MaxInt, TruncSigma: 3}
}

// stdNormCDF is Φ(x) for the standard normal.
func stdNormCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// Quantize converts a Gaussian mixture into a discrete level distribution:
// each component is truncated at ±TruncSigma·σ with the clipped tail mass
// redistributed evenly over that component's retained buckets, then bucket
// masses Φ((b+½)·step) − Φ((b−½)·step) are accumulated per level and the
// result normalized. It returns an error when the mixture is invalid or no
// bucket within [MinLevel, MaxLevel] receives mass.
func Quantize(m Mixture, opt QuantizeOptions) (Dist, error) {
	if err := m.Validate(); err != nil {
		return Dist{}, err
	}
	if opt.Step <= 0 {
		return Dist{}, fmt.Errorf("uncertain: quantization step %v must be positive", opt.Step)
	}
	trunc := opt.TruncSigma
	if trunc == 0 {
		trunc = 3
	}

	lo, hi := levelRange(m, opt, trunc)
	if lo > hi {
		// The whole truncated mixture lies outside the clamp; collapse to
		// the nearest boundary level.
		b := opt.MinLevel
		if levelOf(m.Mean(), opt.Step) > opt.MaxLevel {
			b = opt.MaxLevel
		}
		return Certain(b), nil
	}

	// The bucket masses accumulate in the front third of the array that
	// becomes the Dist's P, CDF and log-CDF tables (settle).
	n := hi - lo + 1
	back := make([]float64, 3*n)
	addMasses(back[:n], lo, m, opt.Step, trunc)
	return settle(lo, back, n)
}

// levelRange returns the levels spanned by any component of m after
// truncation at ±trunc·σ, clamped to [MinLevel, MaxLevel]; lo > hi when
// the clamp excludes them all.
func levelRange(m Mixture, opt QuantizeOptions, trunc float64) (lo, hi int) {
	lo, hi = math.MaxInt, math.MinInt
	for _, c := range m {
		l := levelOf(c.Mean-trunc*c.Sigma, opt.Step)
		h := levelOf(c.Mean+trunc*c.Sigma, opt.Step)
		lo = min(lo, l)
		hi = max(hi, h)
	}
	return max(lo, opt.MinLevel), min(hi, opt.MaxLevel)
}

// addMasses accumulates the truncated bucket masses of m's components
// into probs, the levels lo, …, lo+len(probs)−1 of levelRange.
func addMasses(probs []float64, lo int, m Mixture, step, trunc float64) {
	hi := lo + len(probs) - 1
	for _, c := range m {
		cl := max(levelOf(c.Mean-trunc*c.Sigma, step), lo)
		ch := min(levelOf(c.Mean+trunc*c.Sigma, step), hi)
		if cl > ch {
			// Component entirely clamped away: dump its mass on the nearest
			// retained boundary so weight is conserved.
			b := lo
			if levelOf(c.Mean, step) > hi {
				b = hi
			}
			probs[b-lo] += c.Weight
			continue
		}
		// Tail mass clipped by the ±truncσ truncation, spread evenly
		// (the paper: "set to zero and evenly distributed to the rest").
		tail := 2 * (1 - stdNormCDF(trunc))
		even := tail / float64(ch-cl+1)
		for b := cl; b <= ch; b++ {
			// Mass of bucket b: Gaussian mass in [(b-0.5)step, (b+0.5)step],
			// clipped to the truncation interval. Boundary buckets absorb
			// everything beyond them inside the truncation radius.
			loX := (float64(b) - 0.5) * step
			hiX := (float64(b) + 0.5) * step
			zLo := (loX - c.Mean) / c.Sigma
			zHi := (hiX - c.Mean) / c.Sigma
			if b == cl {
				zLo = -trunc
			}
			if b == ch {
				zHi = trunc
			}
			zLo = math.Max(zLo, -trunc)
			zHi = math.Min(zHi, trunc)
			mass := 0.0
			if zHi > zLo {
				mass = stdNormCDF(zHi) - stdNormCDF(zLo)
			}
			probs[b-lo] += c.Weight * (mass + even)
		}
	}
}

// QuantizeNormal quantizes a single Gaussian; used for window score
// distributions (Eq. 9).
func QuantizeNormal(mean, sigma float64, opt QuantizeOptions) (Dist, error) {
	if sigma <= 0 {
		// Degenerate window (all segments certain): point mass.
		lvl := levelOf(mean, opt.Step)
		lvl = min(max(lvl, opt.MinLevel), opt.MaxLevel)
		return Certain(lvl), nil
	}
	return Quantize(Mixture{{Weight: 1, Mean: mean, Sigma: sigma}}, opt)
}

// LevelOf maps a raw score to its quantized level under the given step.
func LevelOf(score, step float64) int { return levelOf(score, step) }

// LevelValue maps a level back to the representative raw score.
func LevelValue(level int, step float64) float64 { return float64(level) * step }

func levelOf(score, step float64) int {
	return int(math.Round(score / step))
}
