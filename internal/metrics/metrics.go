// Package metrics implements the paper's result-quality metrics (§4):
// precision, normalized footrule rank distance, and score error, plus the
// speedup ratio over scan-and-test, and the exhaustive ground truth they
// are measured against.
package metrics

import (
	"math"
	"sort"
)

// Ranked is a scored item (frame or window) used to define ground truth.
type Ranked struct {
	// ID identifies the item.
	ID int
	// Score is the exact score.
	Score float64
}

// TrueTopK returns the exact Top-K of the given scores, ordered by score
// descending with ties broken by ascending ID (the same deterministic
// order the engine uses).
func TrueTopK(items []Ranked, k int) []Ranked {
	sorted := append([]Ranked(nil), items...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Score != sorted[j].Score {
			return sorted[i].Score > sorted[j].Score
		}
		return sorted[i].ID < sorted[j].ID
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	return sorted[:k]
}

// Precision returns the fraction of returned items that belong to the
// exact Top-K (§4: "the fraction of results in R̂ that belongs to R").
// Items whose score ties the truth's K-th score count as correct,
// matching the paper's tie-tolerant semantics (footnote 1). scores must
// map every result ID to its exact score.
func Precision(result []int, truth []Ranked, scores map[int]float64) float64 {
	if len(truth) == 0 || len(result) == 0 {
		return 0
	}
	inTruth := make(map[int]bool, len(truth))
	for _, t := range truth {
		inTruth[t.ID] = true
	}
	kth := truth[len(truth)-1].Score
	hit := 0
	for _, id := range result {
		if inTruth[id] || scores[id] >= kth {
			hit++
		}
	}
	return float64(hit) / float64(len(result))
}

// RankDistance returns the normalized Spearman footrule between the
// result's order and the items' true ranks: Σ|pos(i) − trueRank(i)| over
// result positions, with items absent from the true Top-K assigned rank
// K+1, normalized by the maximum attainable sum so the value lies in
// [0,1]. 0 means the result lists the exact Top-K in exact order.
func RankDistance(result []int, truth []Ranked) float64 {
	k := len(truth)
	if k == 0 || len(result) == 0 {
		return 0
	}
	trueRank := make(map[int]int, k)
	for i, t := range truth {
		trueRank[t.ID] = i + 1
	}
	sum := 0.0
	maxSum := 0.0
	for i, id := range result {
		pos := i + 1
		r, ok := trueRank[id]
		if !ok {
			r = k + 1
		}
		sum += math.Abs(float64(pos - r))
		maxSum += math.Max(float64(k+1-pos), float64(pos-1))
	}
	if maxSum == 0 {
		return 0
	}
	return sum / maxSum
}

// ScoreError returns the mean absolute difference between the result's
// exact scores and the true Top-K's scores, compared rank-by-rank with
// both sides sorted descending (§4: "the average absolute error for
// scores between R̂ and R").
func ScoreError(resultScores []float64, truth []Ranked) float64 {
	if len(truth) == 0 || len(resultScores) == 0 {
		return 0
	}
	rs := append([]float64(nil), resultScores...)
	sort.Sort(sort.Reverse(sort.Float64Slice(rs)))
	n := min(len(rs), len(truth))
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Abs(rs[i] - truth[i].Score)
	}
	return sum / float64(n)
}

// Speedup returns baselineMS / systemMS.
func Speedup(baselineMS, systemMS float64) float64 {
	if systemMS <= 0 {
		return math.Inf(1)
	}
	return baselineMS / systemMS
}
