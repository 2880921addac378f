package harness

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/windows"
)

// ScaleRow is one point of the scale-out scalability sweep (the RAM3S
// future-work experiment, E1).
type ScaleRow struct {
	Dataset string
	// Workers is the scale-out degree P.
	Workers int
	// WallMS is the BSP wall-clock (per-phase maxima over workers).
	WallMS float64
	// BillMS is the total paid accelerator time (Phase 1 sum + Phase 2).
	BillMS float64
	// Speedup is scan-and-test cost divided by WallMS.
	Speedup float64
	// ScaleEfficiency is Wall(1)/(P·Wall(P)), filled by the sweep.
	ScaleEfficiency float64
	Quality         metrics.Quality
}

// ScaleoutScalability sweeps the worker count on the default workload and
// reports latency, bill and result quality per P. Phase 1 dominates
// end-to-end cost (Table 8a), so parallelizing it is where scale-out
// pays; the efficiency column shows the price of per-shard sampling
// floors and proxy training.
func ScaleoutScalability(scale Scale, k int, thres float64) ([]ScaleRow, error) {
	scale = scale.withDefaults()
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		return nil, err
	}
	src, err := scale.buildDataset(spec)
	if err != nil {
		return nil, err
	}
	udf := vision.CountUDF{Class: src.TargetClass()}
	truth := metrics.FrameTruth(src, udf)
	k = boundK(k, src.NumFrames()/10)
	top := metrics.TrueTopK(truth, k)
	cost := simclock.Default()
	scan := cost.LabelMS(src.NumFrames(), udf.OracleCostMS(cost))

	var rows []ScaleRow
	var wall1 float64
	for _, p := range []int{1, 2, 4, 8} {
		res, err := everest.RunParallel(src, udf, scale.everestConfig(k, thres), p)
		if err != nil {
			return nil, fmt.Errorf("harness: scaleout P=%d: %w", p, err)
		}
		wall := res.Clock.TotalMS()
		if p == 1 {
			wall1 = wall
		}
		phase2 := wall - phase1MS(res.Clock)
		rows = append(rows, ScaleRow{
			Dataset:         spec.Name,
			Workers:         p,
			WallMS:          wall,
			BillMS:          res.WorkerSumMS + phase2*float64(p),
			Speedup:         scan / wall,
			ScaleEfficiency: wall1 / (float64(p) * wall),
			Quality:         metrics.Evaluate(res.IDs, func(i int) float64 { return truth[i].Score }, top),
		})
	}
	return rows, nil
}

// phase1MS sums the Phase 1 phases of a clock.
func phase1MS(c *simclock.Clock) float64 {
	ms := 0.0
	for _, ph := range []simclock.Phase{
		simclock.PhaseLabelSamples, simclock.PhaseTrainCMDN,
		simclock.PhasePopulateD0, simclock.PhaseDiffDetect,
	} {
		ms += c.PhaseMS(ph)
	}
	return ms
}

// SessionRow is one query of the cross-query work-sharing workload (E2).
type SessionRow struct {
	Dataset string
	// Query names the step (e.g. "top-50", "repeat", "top-10").
	Query string
	// SessionMS is the query's cost inside the session (cache warm).
	SessionMS float64
	// AloneMS is the same query's cost as an independent indexed query.
	AloneMS float64
	// Cleaned is the session query's oracle confirmations.
	Cleaned int
	// CacheSize is the cumulative label cache after the query.
	CacheSize int
	Quality   metrics.Quality
}

// SessionAmortization runs a realistic analyst session — the default
// query, a repeat, a drill-down to a smaller K, a stricter threshold, and
// a window view — over one index, comparing each query's marginal cost
// against running it in isolation.
func SessionAmortization(scale Scale, k int, thres float64) ([]SessionRow, error) {
	scale = scale.withDefaults()
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		return nil, err
	}
	src, err := scale.buildDataset(spec)
	if err != nil {
		return nil, err
	}
	udf := vision.CountUDF{Class: src.TargetClass()}
	truth := metrics.FrameTruth(src, udf)
	k = boundK(k, src.NumFrames()/10)

	ix, err := everest.BuildIndex(src, udf, scale.everestConfig(k, thres))
	if err != nil {
		return nil, err
	}
	sess, err := everest.NewSession(ix, src, udf)
	if err != nil {
		return nil, err
	}

	winSize := 30
	steps := []struct {
		name string
		cfg  everest.Config
	}{
		{fmt.Sprintf("top-%d", k), scale.everestConfig(k, thres)},
		{"repeat", scale.everestConfig(k, thres)},
		{fmt.Sprintf("top-%d", max(k/5, 1)), scale.everestConfig(max(k/5, 1), thres)},
		{"thres-0.99", scale.everestConfig(k, 0.99)},
		{fmt.Sprintf("window-%d", winSize), func() everest.Config {
			c := scale.everestConfig(boundK(k, src.NumFrames()/winSize/2), thres)
			c.Window = winSize
			return c
		}()},
	}

	var rows []SessionRow
	for _, st := range steps {
		res, err := sess.Query(st.cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: session step %s: %w", st.name, err)
		}
		alone, err := ix.Query(src, udf, st.cfg)
		if err != nil {
			return nil, err
		}
		var q metrics.Quality
		if st.cfg.Window > 0 {
			wTruth := metrics.SlidingWindowTruth(src, udf, st.cfg.Window, st.cfg.Window)
			top := metrics.TrueTopK(wTruth, st.cfg.K)
			q = metrics.Evaluate(res.IDs, func(w int) float64 { return wTruth[w].Score }, top)
		} else {
			top := metrics.TrueTopK(truth, st.cfg.K)
			q = metrics.Evaluate(res.IDs, func(i int) float64 { return truth[i].Score }, top)
		}
		rows = append(rows, SessionRow{
			Dataset:   spec.Name,
			Query:     st.name,
			SessionMS: res.Clock.TotalMS(),
			AloneMS:   alone.Clock.TotalMS(),
			Cleaned:   res.EngineStats.Cleaned,
			CacheSize: sess.CachedLabels(),
			Quality:   q,
		})
	}
	return rows, nil
}

// SlidingRow is one variant of the sliding-window comparison (E3).
type SlidingRow struct {
	Dataset string
	// Variant names the window shape, e.g. "tumbling 60" or "60 every 15".
	Variant string
	// Windows is the relation size (number of windows).
	Windows int
	// Bound is the confidence computation used.
	Bound string
	// Cleaned is the number of windows confirmed.
	Cleaned int
	// MS is the end-to-end simulated cost.
	MS      float64
	Quality metrics.Quality
}

// SlidingWindows compares tumbling windows against overlapping sliding
// windows of the same size. Overlap multiplies the relation and switches
// the engine to the union bound, so the guarantee survives correlation at
// the price of extra cleaning — the experiment quantifies that price.
func SlidingWindows(scale Scale, k int, thres float64) ([]SlidingRow, error) {
	scale = scale.withDefaults()
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		return nil, err
	}
	src, err := scale.buildDataset(spec)
	if err != nil {
		return nil, err
	}
	udf := vision.CountUDF{Class: src.TargetClass()}
	size := 60
	variants := []struct {
		name   string
		stride int
	}{
		{"tumbling 60", 60},
		{"60 every 30", 30},
		{"60 every 15", 15},
	}

	var rows []SlidingRow
	for _, v := range variants {
		nw := windows.NumSlidingWindows(src.NumFrames(), size, v.stride)
		cfg := scale.everestConfig(boundK(k, nw/2), thres)
		cfg.Window = size
		cfg.Stride = v.stride
		res, err := everest.Run(src, udf, cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: sliding %s: %w", v.name, err)
		}
		wTruth := metrics.SlidingWindowTruth(src, udf, size, v.stride)
		top := metrics.TrueTopK(wTruth, cfg.K)
		rows = append(rows, SlidingRow{
			Dataset: spec.Name,
			Variant: v.name,
			Windows: nw,
			Bound:   res.Bound.String(),
			Cleaned: res.EngineStats.Cleaned,
			MS:      res.Clock.TotalMS(),
			Quality: metrics.Evaluate(res.IDs, func(w int) float64 { return wTruth[w].Score }, top),
		})
	}
	return rows, nil
}

// AblationBound (A7) compares the exact independent-product confidence
// against the conservative union bound on the same frame query: same
// guarantee target, different cleaning bills.
func AblationBound(scale Scale, k int, thres float64) ([]AblationRow, error) {
	return ablate(scale, k, thres, func(res *everest.Result) string {
		return fmt.Sprintf("cleaned %d (%.2f%%), confidence %.3f",
			res.EngineStats.Cleaned,
			100*float64(res.EngineStats.Cleaned)/float64(res.Phase1.Tuples),
			res.Confidence)
	}, []variant{
		{"exact product (Eq. 3)", nil},
		{"union bound", func(c *everest.Config) { c.UnionBound = true }},
	})
}
