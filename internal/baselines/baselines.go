// Package baselines implements the comparison systems of the paper's
// evaluation (§4): the naive scan-and-test oracle pass, the HOG and
// TinyYOLOv3 cheap-detector scans, the CMDN-only ranker (Phase 1 alone),
// and the Select-and-Topk rewrite over a NoScope-style specialized range
// classifier.
//
// Every baseline reports the Top-K it believes in plus its simulated cost,
// so the harness can compute the paper's speedup/precision/rank-distance/
// score-error panels.
package baselines

import (
	"fmt"
	"sort"

	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Outcome is one baseline's answer.
type Outcome struct {
	// Name identifies the baseline.
	Name string
	// IDs is the claimed Top-K, descending by the baseline's scores.
	IDs []int
	// Scores are the baseline's believed scores for IDs (exact for
	// oracle-verified baselines, approximate otherwise).
	Scores []float64
	// MS is the simulated cost.
	MS float64
}

// topKBy selects the K largest by score with ascending-ID tie-breaks.
func topKBy(ids []int, score func(int) float64, k int) ([]int, []float64) {
	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(a, b int) bool {
		sa, sb := score(sorted[a]), score(sorted[b])
		if sa != sb {
			return sa > sb
		}
		return sorted[a] < sorted[b]
	})
	if k > len(sorted) {
		k = len(sorted)
	}
	outIDs := make([]int, k)
	outScores := make([]float64, k)
	for i := 0; i < k; i++ {
		outIDs[i] = sorted[i]
		outScores[i] = score(sorted[i])
	}
	return outIDs, outScores
}

func allFrames(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// ScanAndTest runs the oracle UDF on every frame — the exact but slow
// reference all speedups are measured against.
func ScanAndTest(src video.Source, udf vision.UDF, k int, cost simclock.CostModel) Outcome {
	n := src.NumFrames()
	scores := udf.Score(src, allFrames(n))
	ids, top := topKBy(allFrames(n), func(i int) float64 { return scores[i] }, k)
	return Outcome{
		Name:   "scan-and-test",
		IDs:    ids,
		Scores: top,
		MS:     cost.LabelMS(n, udf.OracleCostMS(cost)),
	}
}

// DetectorScan ranks every frame by a cheap detector's object count (the
// HOG and TinyYOLOv3-only baselines).
func DetectorScan(src video.Source, det vision.Detector, class string, k int, cost simclock.CostModel) Outcome {
	n := src.NumFrames()
	scorer := vision.ApproxCountScorer{Det: det, Class: class}
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		scores[i] = scorer.Score(src, i)
	}
	ids, top := topKBy(allFrames(n), func(i int) float64 { return scores[i] }, k)
	return Outcome{
		Name:   det.Name() + "-only",
		IDs:    ids,
		Scores: top,
		MS:     cost.LabelMS(n, det.FrameCostMS(cost)),
	}
}

// CMDNOnly runs Everest's Phase 1 and ranks frames by the mean of their
// CMDN score distribution, with no oracle verification (§4.1). opt.Cost
// must be resolved (simclock.OrDefault).
func CMDNOnly(src video.Source, udf vision.UDF, k int, opt phase1.Options) (Outcome, error) {
	clock := simclock.NewClock()
	st, err := phase1.Run(src, udf, opt, clock)
	if err != nil {
		return Outcome{}, err
	}
	means := make(map[int]float64, len(st.Diff.Retained))
	for _, i := range st.Diff.Retained {
		if s, ok := st.Labeled[i]; ok {
			means[i] = s
		}
	}
	// Proxy inference over the retained set runs on all configured workers.
	inferIDs, mixes := st.InferRetainedMixtures()
	for j, i := range inferIDs {
		means[i] = mixes[j].Mean()
	}
	clock.Charge(simclock.PhasePopulateD0, opt.Cost.InferMS(len(inferIDs)))
	ids, top := topKBy(st.Diff.Retained, func(i int) float64 { return means[i] }, k)
	return Outcome{Name: "cmdn-only", IDs: ids, Scores: top, MS: clock.TotalMS()}, nil
}

// SelectTopkOutcome is one λ setting of the Select-and-Topk baseline.
type SelectTopkOutcome struct {
	Outcome
	// Lambda is the range-selection fraction of the max training score.
	Lambda float64
	// Candidates is the size of the selection result verified by the
	// oracle.
	Candidates int
	// Failed marks λ settings that yielded fewer than K candidates.
	Failed bool
}

// SelectAndTopk rewrites the Top-K query as the range selection
// "S_f ≥ λM" served by a NoScope-style specialized classifier, followed by
// oracle verification of every candidate and a Top-K over the verified
// scores (§4, Baselines). M is the maximum score seen in training.
//
// Mirroring the paper's generosity to this baseline, the returned cost
// counts only oracle time on candidates (training and the cheap scan are
// free), and one outcome per λ is returned so the harness can pick the
// best λ per dataset, as the paper's authors did by hand. opt.Cost must
// be resolved (simclock.OrDefault).
func SelectAndTopk(src video.Source, udf vision.UDF, k int, opt phase1.Options, lambdas []float64) ([]SelectTopkOutcome, error) {
	if len(lambdas) == 0 {
		lambdas = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	clock := simclock.NewClock()
	st, err := phase1.Run(src, udf, opt, clock)
	if err != nil {
		return nil, err
	}

	// NoScope's specialized model is a *shallow binary CNN* trained per
	// range predicate — not Everest's CMDN. Its capability class is that
	// of a small detector-grade network, which this repository already
	// models as the TinyYOLOv3 simulation: per-object misses, false
	// positives, count noise. As the paper observes, such models "perform
	// well on point queries but not on range queries" — the count noise
	// that is harmless for "is there a car?" blurs the boundary of
	// "are there ≥ λM cars?".
	scorer := vision.ApproxCountScorer{Det: vision.NewTinyDetector(), Class: src.TargetClass()}
	means := make(map[int]float64, len(st.Diff.Retained)+len(st.Labeled))
	for _, i := range st.Diff.Retained {
		means[i] = scorer.Score(src, i)
	}
	for f := range st.Labeled {
		if _, ok := means[f]; !ok {
			means[f] = scorer.Score(src, f)
		}
	}

	// M = max score in the training data.
	maxScore := 0.0
	for _, s := range st.Labeled {
		if s > maxScore {
			maxScore = s
		}
	}

	// Per NoScope's tolerances (FNR target 0.1, FPR 0 — every candidate
	// is oracle-verified), the decision threshold for "S ≥ λM" is set on
	// the labelled data: the largest classifier threshold that keeps the
	// false-negative rate at or below 10% among labelled positives.
	out := make([]SelectTopkOutcome, 0, len(lambdas))
	for _, lambda := range lambdas {
		target := lambda * maxScore
		var posMeans []float64
		for f, s := range st.Labeled {
			if s >= target {
				posMeans = append(posMeans, means[f])
			}
		}
		tau := 0.0 // no positives observed: accept everything
		if len(posMeans) > 0 {
			sort.Float64s(posMeans)
			tau = posMeans[len(posMeans)/10] // 10th percentile → FNR ≤ 0.1
		}

		var candidates []int
		for _, i := range st.Diff.Retained {
			if means[i] >= tau {
				candidates = append(candidates, i)
			}
		}
		o := SelectTopkOutcome{
			Lambda:     lambda,
			Candidates: len(candidates),
		}
		o.Name = fmt.Sprintf("select-and-topk(λ=%.1f)", lambda)
		o.MS = float64(len(candidates)) * udf.OracleCostMS(opt.Cost)
		if len(candidates) < k {
			o.Failed = true
			out = append(out, o)
			continue
		}
		exact := udf.Score(src, candidates)
		exactOf := make(map[int]float64, len(candidates))
		for j, f := range candidates {
			exactOf[f] = exact[j]
		}
		o.IDs, o.Scores = topKBy(candidates, func(i int) float64 { return exactOf[i] }, k)
		out = append(out, o)
	}
	return out, nil
}
