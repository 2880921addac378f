// Package uncertain implements the uncertain-data management substrate of
// Everest: discrete score distributions (x-tuples), truncation and
// quantization of Gaussian mixtures (§3.2), the precomputed per-frame CDFs
// F_f and joint CDF H of §3.3.1 in log space, and a brute-force
// possible-world enumerator used as a test oracle for the Phase 2
// algorithms.
//
// Scores are quantized onto an integer level grid: a frame's real-valued
// score s maps to level round(s/step). For counting queries step == 1 and
// levels are the counts themselves. All Phase 2 math operates on levels.
package uncertain

import (
	"fmt"
	"math"
)

// Dist is a discrete probability distribution over integer score levels.
// P[i] is the probability of level Min+i. Distributions are normalized and
// trimmed so that P[0] > 0 and P[len(P)-1] > 0. A Dist is immutable once
// built and carries its CDF and log-CDF tables, so CDF and LogCDF are
// lookups: whoever builds a Dist once (the engine builds D0 once per
// index) pays its logs once.
type Dist struct {
	// Min is the lowest level with non-zero probability.
	Min int
	// P holds probabilities for levels Min, Min+1, ..., Min+len(P)-1.
	P []float64
	// cum holds two tables of len(P) entries back to back, in P's backing
	// array: cum[i] = Pr(level <= Min+i), with cum[len(P)-1] == 1, then
	// cum[len(P)+i] = log cum[i]. The logs are taken once, when the
	// distribution is built, so the joint CDF (and every later query over
	// a memoized D0) only adds them.
	cum []float64
}

// NewDist builds a distribution from probabilities of levels starting at
// min. It trims zero-probability head/tail entries and normalizes the rest.
// It returns an error if probs contains a negative or non-finite value or
// sums to zero.
func NewDist(min int, probs []float64) (Dist, error) {
	back := make([]float64, 3*len(probs))
	copy(back, probs)
	return settle(min, back, len(probs))
}

// settle finishes a distribution in the array that will hold it:
// back[:n] holds the unnormalized masses of levels min, …, min+n−1 and
// back is 3n long. It checks and sums the masses, trims the zero head
// and tail by moving the rest to the front, divides it by the sum in
// place and fills the CDF and log-CDF tables behind it, so P and its
// tables are one array: a Dist costs one allocation and stays 56 bytes
// however many tables it carries.
func settle(min int, back []float64, n int) (Dist, error) {
	probs := back[:n]
	var sum float64
	for _, p := range probs {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return Dist{}, fmt.Errorf("uncertain: invalid probability %v", p)
		}
		sum += p
	}
	if sum <= 0 {
		return Dist{}, fmt.Errorf("uncertain: distribution sums to %v", sum)
	}
	lo, hi := 0, n
	for lo < hi && probs[lo] == 0 {
		lo++
	}
	for hi > lo && probs[hi-1] == 0 {
		hi--
	}
	n = copy(back, probs[lo:hi])
	d := Dist{Min: min + lo, P: back[:n:n], cum: back[n : 3*n : 3*n]}
	for i := range d.P {
		d.P[i] /= sum
	}
	d.buildCum()
	return d, nil
}

// pointMass is the read-only table (P, CDF, log CDF) every point mass
// shares: nothing writes a built Dist; only settle fills fresh tables.
var pointMass = [...]float64{1, 1, 0}

// Certain returns a point-mass distribution at the given level, without
// allocating; used when a frame's exact score is known (cleaned by the
// oracle or labelled during Phase 1 sampling).
func Certain(level int) Dist {
	return Dist{Min: level, P: pointMass[:1:1], cum: pointMass[1:]}
}

// buildCum fills the CDF table from P and the log-CDF table from that.
func (d *Dist) buildCum() {
	n := len(d.P)
	s := 0.0
	for i, p := range d.P {
		s += p
		d.cum[i] = s
	}
	// Clamp the final entry to exactly 1 to absorb float drift.
	d.cum[n-1] = 1
	for i, c := range d.cum[:n] {
		d.cum[n+i] = math.Log(c) // -Inf at 0, exactly 0 at 1
	}
}

// Max returns the highest level with non-zero probability.
func (d Dist) Max() int { return d.Min + len(d.P) - 1 }

// IsCertain reports whether the distribution is a point mass.
func (d Dist) IsCertain() bool { return len(d.P) == 1 }

// Pr returns Pr(level == t).
func (d Dist) Pr(t int) float64 {
	if t < d.Min || t > d.Max() {
		return 0
	}
	return d.P[t-d.Min]
}

// CDF returns F(t) = Pr(level <= t).
func (d Dist) CDF(t int) float64 {
	if t < d.Min {
		return 0
	}
	if t >= d.Max() {
		return 1
	}
	return d.cum[t-d.Min]
}

// LogCDF returns log F(t), with -Inf when F(t) == 0. It reads the table
// built with the distribution: the same math.Log(CDF(t)), taken once.
func (d Dist) LogCDF(t int) float64 {
	if t < d.Min {
		return math.Inf(-1)
	}
	if t >= d.Max() {
		return 0
	}
	return d.cum[len(d.P)+t-d.Min]
}

// Mean returns the expected level.
func (d Dist) Mean() float64 {
	m := 0.0
	for i, p := range d.P {
		m += float64(d.Min+i) * p
	}
	return m
}

// Variance returns the level variance.
func (d Dist) Variance() float64 {
	m := d.Mean()
	v := 0.0
	for i, p := range d.P {
		x := float64(d.Min+i) - m
		v += x * x * p
	}
	return v
}

// Validate checks internal invariants (normalization, trimmed ends,
// monotone CDF). It is used by property tests.
func (d Dist) Validate() error {
	if len(d.P) == 0 {
		return fmt.Errorf("uncertain: empty distribution")
	}
	if d.P[0] == 0 || d.P[len(d.P)-1] == 0 {
		return fmt.Errorf("uncertain: untrimmed distribution")
	}
	sum := 0.0
	for _, p := range d.P {
		if p < 0 || math.IsNaN(p) {
			return fmt.Errorf("uncertain: invalid probability %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("uncertain: probabilities sum to %v", sum)
	}
	prev := 0.0
	for i := range d.P {
		c := d.CDF(d.Min + i)
		if c+1e-12 < prev {
			return fmt.Errorf("uncertain: CDF not monotone at level %d", d.Min+i)
		}
		prev = c
	}
	return nil
}

// XTuple is one uncertain tuple of the relation: a frame (or window)
// identified by ID with a discrete score distribution. Following §2, the
// difference detector makes x-tuples independent of each other, so the
// relation is simply a slice of XTuples.
type XTuple struct {
	// ID identifies the frame or window (its index in the video).
	ID int
	// Dist is the score-level distribution; a point mass once cleaned.
	Dist Dist
}

// Relation is an uncertain relation: a set of independent x-tuples.
type Relation []XTuple
