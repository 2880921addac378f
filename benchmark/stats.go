package main

import (
	"math"
	"sort"

	"github.com/everest-project/everest/internal/xrand"
)

// percentile is the nearest-rank percentile of xs (q in (0,1]); 0 for
// an empty sample. Nearest rank, not interpolation, so a reported
// latency is always one that an op actually had.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle value (mean of the two middle values for an even
// count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// shuffle is a seeded order of n ops, drawn anew for every pass and kept
// for the pass in progress, so asking for it costs nothing inside a
// timed op.
type shuffle struct {
	rng  *xrand.RNG
	n    int
	pass int
	perm []int
}

func newShuffle(seed uint64, label string, n int) *shuffle {
	return &shuffle{rng: xrand.New(seed).Split(label), n: n, pass: -1}
}

// at is the op identity at position i of pass p.
func (s *shuffle) at(p, i int) int {
	if s.perm == nil || s.pass != p {
		s.pass, s.perm = p, s.rng.SplitIndex(uint64(p)).Perm(s.n)
	}
	return s.perm[i]
}

// ratio is a/b, 0 when b is 0 — per-layer shares of layers that are off
// a workload's path read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
