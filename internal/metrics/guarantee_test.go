//go:build guarantee

package metrics_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestGuarantee measures the paper's contract (§3.3) end to end, with
// the real proxy: Pr(returned Top-K = exact Top-K) ≥ Threshold. Each
// cell of the grid is one choke point; per cell and counting dataset it
// runs oneshot_run's query on guaranteeVideos fresh videos and counts
// the exact answers:
//
//   - base: K 10 on 4,000-frame videos;
//   - tiny-n: K 10 on 640-frame videos, where Phase 1 falls back to
//     labelling half the video (phase1.SampleCounts);
//   - ties: K 50 on 4,000-frame videos, where many frames share the
//     K-th quantized level.
//
// Each cell seeds its videos apart from the others'. A row fails when
// a one-sided binomial test rejects "exact rate ≥ Threshold" at
// guaranteeAlpha, or when the mean reported confidence lies above the
// exact rate's one-sided Clopper-Pearson upper bound at the same level
// (the answers claim more than they deliver). Run it with
// `make guarantee`; it is not part of the default test run.
func TestGuarantee(t *testing.T) {
	const (
		guaranteeVideos = 40
		guaranteeAlpha  = 0.01
		firstN          = 20 // the prefix the sweep was first recorded at
	)
	cells := []struct {
		name      string
		frames, k int
		seed      uint64 // added to the catalog seed, plus the video's index
	}{
		{"base", 4000, 10, 1000},
		{"tiny-n", 640, 10, 2000},
		{"ties", 4000, 50, 3000},
	}
	base := everest.Config{
		Threshold: 0.9,
		Proxy:     cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40}}},
		Seed:      1,
		Procs:     2,
	}
	var table strings.Builder
	fmt.Fprintf(&table, "%-7s %5s %3s %-16s %9s %9s %6s %9s %9s %10s  %s\n",
		"cell", "n", "K", "dataset", "exact@20", "exact@N", "rate", "mean-conf", "p-value", "conf-bound", "verdict")
	for _, cell := range cells {
		cfg := base
		cfg.K = cell.k
		for _, spec := range video.CountingDatasets() {
			udf := vision.CountUDF{Class: spec.Config.Class}
			exact, exactFirst, confSum := 0, 0, 0.0
			for i := 0; i < guaranteeVideos; i++ {
				vc := spec.Config
				vc.Name = fmt.Sprintf("g-%s-%d", spec.Name, i)
				if cell.name != "base" {
					vc.Name = fmt.Sprintf("g-%s-%s-%d", cell.name, spec.Name, i)
				}
				vc.Seed += cell.seed + uint64(i)
				vc.Frames = cell.frames
				src, err := video.NewSynthetic(vc)
				if err != nil {
					t.Fatal(err)
				}
				res, err := everest.Run(src, udf, cfg)
				if err != nil {
					t.Fatalf("%s: %v", vc.Name, err)
				}
				confSum += res.Confidence
				if exactTopK(res.IDs, metrics.FrameTruth(src, udf), cfg.K) {
					exact++
					if i < firstN {
						exactFirst++
					}
				}
			}
			n := guaranteeVideos
			rate := float64(exact) / float64(n)
			meanConf := confSum / float64(n)
			pValue := binomCDF(exact, n, cfg.Threshold)
			bound := upperBound(exact, n, guaranteeAlpha)
			var why []string
			if pValue < guaranteeAlpha {
				why = append(why, fmt.Sprintf("exact rate below %.2f", cfg.Threshold))
			}
			if meanConf > bound {
				why = append(why, "overconfident")
			}
			verdict := "ok"
			if len(why) > 0 {
				verdict = "FAIL: " + strings.Join(why, ", ")
				t.Errorf("%s/%s: %d/%d exact (p = %.3g), mean confidence %.3f against bound %.3f",
					cell.name, spec.Name, exact, n, pValue, meanConf, bound)
			}
			fmt.Fprintf(&table, "%-7s %5d %3d %-16s %6d/%-2d %6d/%-2d %6.3f %9.3f %9.3g %10.3f  %s\n",
				cell.name, cell.frames, cell.k, spec.Name, exactFirst, firstN, exact, n, rate, meanConf, pValue, bound, verdict)
		}
	}
	t.Logf("Threshold %.2f, %d videos per cell and dataset, α = %.2f:\n%s",
		base.Threshold, guaranteeVideos, guaranteeAlpha, table.String())
}

// exactTopK reports whether the answer's true scores equal the true
// Top-k's as a multiset, so a tie at the K-th level is forgiven.
func exactTopK(ids []int, truth []metrics.Ranked, k int) bool {
	want := metrics.TrueTopK(truth, k)
	if len(ids) != len(want) {
		return false
	}
	got := make([]float64, len(ids))
	for i, id := range ids {
		got[i] = truth[id].Score
	}
	slices.Sort(got)
	slices.Reverse(got)
	for i, w := range want {
		if got[i] != w.Score {
			return false
		}
	}
	return true
}

// binomCDF is P(X ≤ x) for X ~ Binomial(n, p).
func binomCDF(x, n int, p float64) float64 {
	lc, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := 0; i <= x; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lc - li - lr + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return min(sum, 1)
}

// upperBound is the one-sided Clopper-Pearson upper confidence bound at
// level 1 − alpha for a rate with x successes in n trials: the largest p
// with P(X ≤ x | n, p) ≥ alpha, by bisection.
func upperBound(x, n int, alpha float64) float64 {
	if x >= n {
		return 1
	}
	lo, hi := float64(x)/float64(n), 1.0
	for range 60 {
		mid := (lo + hi) / 2
		if binomCDF(x, n, mid) >= alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
