package core

import (
	"math"

	"github.com/everest-project/everest/internal/uncertain"
)

// This file implements two of the alternative uncertain Top-K semantics
// surveyed in §2 — U-KRanks [56,57] and probabilistic-threshold Top-K
// (PT-k) [33] — for the no-oracle setting. They exist to reproduce the
// paper's argument that none of these notions provides Everest's
// guarantee: U-KRanks' per-rank winners need not form a probable set, and
// PT-k may return fewer (or more) than K tuples. The ablation harness
// contrasts their precision against Everest's oracle-in-the-loop results.
// The third, U-TopK [57,61] (the most probable set, which may still be
// very improbable), is exponential and serves only as a reference in
// semantics_test.go.
//
// Both assume independent x-tuples. Ranks are defined by the number
// of strictly greater scores (ties favour the tuple), matching the
// tie-tolerant convention used elsewhere in this reproduction.

// rankCountDP holds, per level t, the Poisson-binomial distribution of
// the number of tuples scoring strictly above t, truncated at kMax —
// together with per-tuple leave-one-out access via forward/backward
// arrays.
type rankCountDP struct {
	rel  uncertain.Relation
	kMax int
}

func newRankCountDP(rel uncertain.Relation, kMax int) *rankCountDP {
	return &rankCountDP{rel: rel, kMax: kMax}
}

// countsExcluding returns the distribution (truncated at kMax, with the
// tail mass in the last bucket) of #{g ≠ skip : S_g > t}. skip < 0 keeps
// all tuples.
func (d *rankCountDP) countsExcluding(skip int, t int) []float64 {
	probs := make([]float64, d.kMax+2) // [0..kMax] plus overflow bucket
	probs[0] = 1
	for gi, g := range d.rel {
		if gi == skip {
			continue
		}
		q := 1 - g.Dist.CDF(t) // Pr(S_g > t)
		if q == 0 {
			continue
		}
		// In-place convolution with a Bernoulli(q), high to low. The top
		// bucket is absorbing: counts at or above it stay there.
		over := len(probs) - 1
		probs[over] += probs[over-1] * q
		for c := over - 1; c >= 1; c-- {
			probs[c] = probs[c]*(1-q) + probs[c-1]*q
		}
		probs[0] *= 1 - q
	}
	return probs
}

// TopKMembershipProb returns, for each tuple, Pr(tuple ranks within the
// top k): Σ_s Pr(S_f = s) · Pr(#{g≠f : S_g > s} ≤ k−1).
func TopKMembershipProb(rel uncertain.Relation, k int) []float64 {
	dp := newRankCountDP(rel, k)
	out := make([]float64, len(rel))
	for fi, f := range rel {
		p := 0.0
		for lvl := f.Dist.Min; lvl <= f.Dist.Max(); lvl++ {
			pf := f.Dist.Pr(lvl)
			if pf == 0 {
				continue
			}
			counts := dp.countsExcluding(fi, lvl)
			cum := 0.0
			for c := 0; c <= k-1; c++ {
				cum += counts[c]
			}
			p += pf * cum
		}
		out[fi] = math.Min(p, 1)
	}
	return out
}

// PTk returns the probabilistic-threshold Top-K answer [33]: every tuple
// whose probability of being in the Top-K is at least p. The result may
// contain fewer or more than k tuples — one of the paper's arguments
// against this notion for video analytics.
func PTk(rel uncertain.Relation, k int, p float64) []int {
	probs := TopKMembershipProb(rel, k)
	var ids []int
	for i, pr := range probs {
		if pr >= p {
			ids = append(ids, rel[i].ID)
		}
	}
	return ids
}

// UKRanks returns the U-KRanks answer [56,57]: for each rank i ∈ 1..k,
// the tuple most likely to occupy exactly rank i. The same tuple may win
// several ranks; winners need not form the most probable Top-K set.
func UKRanks(rel uncertain.Relation, k int) []int {
	dp := newRankCountDP(rel, k)
	bestProb := make([]float64, k)
	bestID := make([]int, k)
	for i := range bestID {
		bestID[i] = -1
	}
	for fi, f := range rel {
		// rankProb[i] = Pr(exactly i tuples beat f) for i in 0..k-1.
		rankProb := make([]float64, k)
		for lvl := f.Dist.Min; lvl <= f.Dist.Max(); lvl++ {
			pf := f.Dist.Pr(lvl)
			if pf == 0 {
				continue
			}
			counts := dp.countsExcluding(fi, lvl)
			for i := 0; i < k; i++ {
				rankProb[i] += pf * counts[i]
			}
		}
		for i := 0; i < k; i++ {
			if rankProb[i] > bestProb[i] ||
				(rankProb[i] == bestProb[i] && bestID[i] >= 0 && rel[fi].ID < bestID[i]) {
				bestProb[i] = rankProb[i]
				bestID[i] = rel[fi].ID
			}
		}
	}
	return bestID
}
