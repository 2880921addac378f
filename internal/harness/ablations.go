package harness

import (
	"fmt"
	"sort"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Dataset string
	Variant string
	MS      float64
	Quality metrics.Quality
	Note    string
}

// ablationDataset builds the default ablation workload (Archie).
func ablationDataset(scale Scale) (*video.Synthetic, vision.CountUDF, error) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		return nil, vision.CountUDF{}, err
	}
	src, err := scale.buildDataset(spec)
	if err != nil {
		return nil, vision.CountUDF{}, err
	}
	return src, vision.CountUDF{Class: src.TargetClass()}, nil
}

// variant is one arm of an ablation study: its row label and the
// Config switch it flips (nil for the arm that runs the defaults).
type variant struct {
	name   string
	mutate func(*everest.Config)
}

// ablate runs one study over the default ablation workload: one
// everest.Run per variant at the same K and threshold, each scored
// against the ground truth (computed once — it scores every frame of
// the video with the UDF), with note rendering the engine counters the
// study is about.
func ablate(scale Scale, k int, thres float64, note func(*everest.Result) string, variants []variant) ([]AblationRow, error) {
	scale = scale.withDefaults()
	src, udf, err := ablationDataset(scale)
	if err != nil {
		return nil, err
	}
	k = boundK(k, src.NumFrames()/10)
	truth := metrics.FrameTruth(src, udf)
	top := metrics.TrueTopK(truth, k)
	rows := make([]AblationRow, 0, len(variants))
	for _, v := range variants {
		cfg := scale.everestConfig(k, thres)
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		res, err := everest.Run(src, udf, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Dataset: src.Name(),
			Variant: v.name,
			MS:      res.Clock.TotalMS(),
			Quality: metrics.Evaluate(res.IDs, func(i int) float64 { return truth[i].Score }, top),
			Note:    note(res),
		})
	}
	return rows, nil
}

// AblationEarlyStop (A1) contrasts the ψ-bound pruning of §3.3.2 with
// exhaustive E[X_f] evaluation.
func AblationEarlyStop(scale Scale, k int, thres float64) ([]AblationRow, error) {
	return ablate(scale, k, thres, func(res *everest.Result) string {
		return fmt.Sprintf("examined=%d pruned=%d iters=%d",
			res.EngineStats.Examined, res.EngineStats.Pruned, res.EngineStats.Iterations)
	}, []variant{
		{"psi-early-stop", nil},
		{"exhaustive", func(c *everest.Config) { c.DisableEarlyStop = true }},
	})
}

// AblationResort (A2) contrasts the paper's adaptive ψ re-sort schedule
// with sorting only once at iteration 0.
func AblationResort(scale Scale, k int, thres float64) ([]AblationRow, error) {
	return ablate(scale, k, thres, func(res *everest.Result) string {
		return fmt.Sprintf("resorts=%d examined=%d cleaned=%d",
			res.EngineStats.Resorts, res.EngineStats.Examined, res.EngineStats.Cleaned)
	}, []variant{
		{"adaptive-resort", nil},
		{"sort-once", func(c *everest.Config) { c.ResortOnce = true }},
	})
}

// AblationBatch (A3) sweeps the Phase 2 batch size b (§3.5).
func AblationBatch(scale Scale, k int, thres float64) ([]AblationRow, error) {
	var variants []variant
	for _, b := range []int{1, 2, 4, 8, 16, 32} {
		variants = append(variants, variant{fmt.Sprintf("b=%d", b), func(c *everest.Config) { c.BatchSize = b }})
	}
	return ablate(scale, k, thres, func(res *everest.Result) string {
		return fmt.Sprintf("iters=%d cleaned=%d", res.EngineStats.Iterations, res.EngineStats.Cleaned)
	}, variants)
}

// AblationDiff (A4) contrasts running with and without the difference
// detector.
func AblationDiff(scale Scale, k int, thres float64) ([]AblationRow, error) {
	return ablate(scale, k, thres, func(res *everest.Result) string {
		return fmt.Sprintf("retained=%d/%d cleaned=%d",
			res.Phase1.Retained, res.Phase1.TotalFrames, res.EngineStats.Cleaned)
	}, []variant{
		{"diff-detector", nil},
		{"no-diff", func(c *everest.Config) { c.DisableDiff = true }},
	})
}

// AblationSemantics (A5) contrasts Everest's oracle-in-the-loop guarantee
// with the no-oracle uncertain Top-K notions of §2 (U-KRanks and PT-k) on
// the same uncertain relation D0.
func AblationSemantics(scale Scale, k int, thres float64) ([]AblationRow, error) {
	scale = scale.withDefaults()
	src, udf, err := ablationDataset(scale)
	if err != nil {
		return nil, err
	}
	kk := boundK(k, src.NumFrames()/20)
	truth := metrics.FrameTruth(src, udf)
	top := metrics.TrueTopK(truth, kk)
	trueScore := func(i int) float64 { return truth[i].Score }

	var rows []AblationRow
	cfg := scale.everestConfig(kk, thres)
	res, err := everest.Run(src, udf, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{
		Dataset: src.Name(), Variant: "everest",
		MS:      res.Clock.TotalMS(),
		Quality: metrics.Evaluate(res.IDs, trueScore, top),
		Note:    fmt.Sprintf("conf=%.3f", res.Confidence),
	})

	// Build the same D0 and answer from the prior alone. The DP is
	// O(n²k)-ish; cap the relation at the most promising tuples by mean.
	art, err := engine.Ingest(src, udf, phase1.Options{
		Proxy: scale.proxyConfig(), Cost: simclock.Default(), Seed: scale.Seed,
	}, simclock.NewClock())
	if err != nil {
		return nil, err
	}
	rel, err := art.FrameRelation(udf.Quantize(), nil)
	if err != nil {
		return nil, err
	}
	rel = topByMean(rel, 600)

	uk := core.UKRanks(rel, kk)
	rows = append(rows, AblationRow{
		Dataset: src.Name(), Variant: "u-kranks(no-oracle)",
		Quality: metrics.Evaluate(dedupe(uk), trueScore, top),
		Note:    "per-rank winners; no guarantee, no oracle",
	})
	for _, p := range []float64{0.3, 0.5} {
		pt := core.PTk(rel, kk, p)
		rows = append(rows, AblationRow{
			Dataset: src.Name(), Variant: fmt.Sprintf("pt-k(p=%.1f)", p),
			Quality: metrics.Evaluate(pt, trueScore, top),
			Note:    fmt.Sprintf("returned %d tuples (K=%d)", len(pt), kk),
		})
	}
	return rows, nil
}

// topByMean keeps the n tuples with the highest distribution means.
func topByMean(rel uncertain.Relation, n int) uncertain.Relation {
	if len(rel) <= n {
		return rel
	}
	sorted := append(uncertain.Relation(nil), rel...)
	sort.Slice(sorted, func(i, j int) bool {
		mi, mj := sorted[i].Dist.Mean(), sorted[j].Dist.Mean()
		if mi != mj {
			return mi > mj
		}
		return sorted[i].ID < sorted[j].ID
	})
	return sorted[:n]
}

func dedupe(ids []int) []int {
	seen := make(map[int]bool, len(ids))
	var out []int
	for _, id := range ids {
		if id < 0 || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
	}
	return out
}

// AblationPrefetch (A6) contrasts ψ-order prefetching (§3.5) — which
// hides cleaned frames' decode latency behind oracle compute — with
// synchronous decode-then-infer cleaning.
func AblationPrefetch(scale Scale, k int, thres float64) ([]AblationRow, error) {
	return ablate(scale, k, thres, func(res *everest.Result) string {
		return fmt.Sprintf("cleaned=%d confirmMS=%.0f",
			res.EngineStats.Cleaned, res.Clock.PhaseMS(simclock.PhaseConfirm))
	}, []variant{
		{"prefetch", nil},
		{"no-prefetch", func(c *everest.Config) { c.DisablePrefetch = true }},
	})
}
