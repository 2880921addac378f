package harness

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/baselines"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/visualroad"
)

// SystemRow is one (dataset, system) cell of Fig. 4 / 9.
type SystemRow struct {
	Dataset string
	System  string
	MS      float64
	Speedup float64
	Quality metrics.Quality
	Note    string
}

// SweepRow is one (dataset, x) point of the K / thres / window / density
// sweeps (Fig. 5–8).
type SweepRow struct {
	Dataset string
	X       float64
	MS      float64
	Speedup float64
	Quality metrics.Quality
	Note    string
}

func boundK(k, maxK int) int {
	if maxK < 1 {
		maxK = 1
	}
	if k > maxK {
		return maxK
	}
	return k
}

// Fig4 reproduces the overall comparison (Fig. 4): the default Top-50
// (thres = 0.9) query on the five object-counting videos, against
// scan-and-test, HOG, CMDN-only, TinyYOLOv3-only and Select-and-Topk.
func Fig4(scale Scale, k int, thres float64) ([]SystemRow, error) {
	scale = scale.withDefaults()
	cost := simclock.Default()
	var rows []SystemRow
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		kk := boundK(k, src.NumFrames()/10)
		udf := vision.CountUDF{Class: src.TargetClass()}
		truth := metrics.FrameTruth(src, udf)
		topTruth := metrics.TrueTopK(truth, kk)
		trueScore := func(i int) float64 { return truth[i].Score }
		scan := baselines.ScanAndTest(src, udf, kk, cost)

		add := func(system string, ids []int, ms float64, note string) {
			rows = append(rows, SystemRow{
				Dataset: spec.Name,
				System:  system,
				MS:      ms,
				Speedup: metrics.Speedup(scan.MS, ms),
				Quality: metrics.Evaluate(ids, trueScore, topTruth),
				Note:    note,
			})
		}

		res, err := everest.Run(src, udf, scale.everestConfig(kk, thres))
		if err != nil {
			return nil, err
		}
		add("everest", res.IDs, res.Clock.TotalMS(),
			fmt.Sprintf("conf=%.3f cleaned=%d", res.Confidence, res.EngineStats.Cleaned))
		add(scan.Name, scan.IDs, scan.MS, "")

		hog := baselines.DetectorScan(src, vision.NewHOGDetector(), src.TargetClass(), kk, cost)
		add(hog.Name, hog.IDs, hog.MS, "")
		tiny := baselines.DetectorScan(src, vision.NewTinyDetector(), src.TargetClass(), kk, cost)
		add(tiny.Name, tiny.IDs, tiny.MS, "")

		p1opt := phase1.Options{Proxy: scale.proxyConfig(), Cost: cost, Seed: scale.Seed}
		co, err := baselines.CMDNOnly(src, udf, kk, p1opt)
		if err != nil {
			return nil, err
		}
		add(co.Name, co.IDs, co.MS, "")

		sel, err := baselines.SelectAndTopk(src, udf, kk, p1opt, nil)
		if err != nil {
			return nil, err
		}
		if best := pickBestSelectTopk(sel, trueScore, topTruth); best != nil {
			add("select-and-topk", best.IDs, best.MS, fmt.Sprintf("λ=%.1f", best.Lambda))
		} else {
			rows = append(rows, SystemRow{Dataset: spec.Name, System: "select-and-topk",
				Note: "no λ yielded ≥K candidates"})
		}
	}
	return rows, nil
}

// pickBestSelectTopk reproduces the paper's manual λ calibration: the λ
// with the largest speedup (smallest cost) subject to precision ≥ 0.9,
// falling back to the highest-precision λ when none qualifies.
func pickBestSelectTopk(outs []baselines.SelectTopkOutcome, trueScore func(int) float64, truth []metrics.Ranked) *baselines.SelectTopkOutcome {
	var qualified, fallback *baselines.SelectTopkOutcome
	fallbackPrec := -1.0
	for i := range outs {
		o := &outs[i]
		if o.Failed {
			continue
		}
		p := metrics.Evaluate(o.IDs, trueScore, truth).Precision
		if p >= 0.9 && (qualified == nil || o.MS < qualified.MS) {
			qualified = o
		}
		if p > fallbackPrec {
			fallback = o
			fallbackPrec = p
		}
	}
	if qualified != nil {
		return qualified
	}
	return fallback
}

// Table8Row is one dataset's row of Table 8 (latency breakdown + Phase 2
// counters).
type Table8Row struct {
	Dataset string
	// Shares of total simulated time, matching Table 8a's columns.
	LabelShare, TrainShare, PopulateShare, SelectShare, ConfirmShare float64
	// Iterations and the fraction of frames cleaned (Table 8b).
	Iterations  int
	CleanedFrac float64
	TotalMS     float64
	Confidence  float64
}

// Table8 reproduces the execution breakdown of Table 8 under the default
// query.
func Table8(scale Scale, k int, thres float64) ([]Table8Row, error) {
	scale = scale.withDefaults()
	var rows []Table8Row
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		kk := boundK(k, src.NumFrames()/10)
		udf := vision.CountUDF{Class: src.TargetClass()}
		res, err := everest.Run(src, udf, scale.everestConfig(kk, thres))
		if err != nil {
			return nil, err
		}
		share := make(map[simclock.Phase]float64)
		for _, ps := range res.Clock.Breakdown() {
			share[ps.Phase] = ps.Share
		}
		rows = append(rows, Table8Row{
			Dataset:       spec.Name,
			LabelShare:    share[simclock.PhaseLabelSamples],
			TrainShare:    share[simclock.PhaseTrainCMDN],
			PopulateShare: share[simclock.PhasePopulateD0],
			SelectShare:   share[simclock.PhaseSelect],
			ConfirmShare:  share[simclock.PhaseConfirm],
			Iterations:    res.EngineStats.Iterations,
			CleanedFrac:   float64(res.EngineStats.Cleaned) / float64(res.Phase1.TotalFrames),
			TotalMS:       res.Clock.TotalMS(),
			Confidence:    res.Confidence,
		})
	}
	return rows, nil
}

// runCountingPoint executes one Everest query on one counting dataset and
// evaluates it against ground truth.
func runCountingPoint(src *video.Synthetic, cfg everest.Config, x float64) (SweepRow, error) {
	udf := vision.CountUDF{Class: src.TargetClass()}
	cost := simclock.Default()
	res, err := everest.Run(src, udf, cfg)
	if err != nil {
		return SweepRow{}, err
	}
	scanMS := cost.LabelMS(src.NumFrames(), udf.OracleCostMS(cost))
	var q metrics.Quality
	var note string
	if cfg.Window > 0 {
		truth := metrics.SlidingWindowTruth(src, udf, cfg.Window, cfg.Window)
		top := metrics.TrueTopK(truth, cfg.K)
		q = metrics.Evaluate(res.IDs, func(w int) float64 { return truth[w].Score }, top)
	} else {
		truth := metrics.FrameTruth(src, udf)
		top := metrics.TrueTopK(truth, cfg.K)
		q = metrics.Evaluate(res.IDs, func(i int) float64 { return truth[i].Score }, top)
	}
	note = fmt.Sprintf("conf=%.3f cleaned=%d", res.Confidence, res.EngineStats.Cleaned)
	return SweepRow{
		Dataset: src.Name(),
		X:       x,
		MS:      res.Clock.TotalMS(),
		Speedup: metrics.Speedup(scanMS, res.Clock.TotalMS()),
		Quality: q,
		Note:    note,
	}, nil
}

// Fig5 sweeps K ∈ {5,10,25,50,75,100} on the five counting videos.
func Fig5(scale Scale, thres float64) ([]SweepRow, error) {
	scale = scale.withDefaults()
	var rows []SweepRow
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		for _, k := range []int{5, 10, 25, 50, 75, 100} {
			cfg := scale.everestConfig(boundK(k, src.NumFrames()/10), thres)
			row, err := runCountingPoint(src, cfg, float64(k))
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig6 sweeps thres ∈ {0.5,0.75,0.9,0.95,0.99}.
func Fig6(scale Scale, k int) ([]SweepRow, error) {
	scale = scale.withDefaults()
	var rows []SweepRow
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		kk := boundK(k, src.NumFrames()/10)
		for _, thres := range []float64{0.5, 0.75, 0.9, 0.95, 0.99} {
			cfg := scale.everestConfig(kk, thres)
			row, err := runCountingPoint(src, cfg, thres)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig7 sweeps window sizes {1, 30, 60, 150, 300} frames (1 = frame-based)
// with 10% in-window sampling.
func Fig7(scale Scale, k int, thres float64) ([]SweepRow, error) {
	scale = scale.withDefaults()
	var rows []SweepRow
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		for _, w := range []int{1, 30, 60, 150, 300} {
			maxK := src.NumFrames() / 10
			if w > 1 {
				maxK = src.NumFrames() / w / 2
			}
			cfg := scale.everestConfig(boundK(k, maxK), thres)
			if w > 1 {
				cfg.Window = w
			}
			row, err := runCountingPoint(src, cfg, float64(w))
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig8 sweeps Visual-Road car density {50,100,150,200,250}.
func Fig8(scale Scale, k int, thres float64) ([]SweepRow, error) {
	scale = scale.withDefaults()
	frames := scale.Frames
	if frames == 0 {
		frames = 27000 // the paper's 10-hour videos, scaled like Table 7
	}
	var rows []SweepRow
	for _, cars := range visualroad.CarCounts() {
		src, err := visualroad.Generate(cars, frames, 0x51a1)
		if err != nil {
			return nil, err
		}
		cfg := scale.everestConfig(boundK(k, src.NumFrames()/10), thres)
		row, err := runCountingPoint(src, cfg, float64(cars))
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig9 runs the depth-estimator UDF scenarios on the two dashcam videos:
// Top-50 (0.9), Top-100 (0.9), Top-50 (0.75) and a Top-50 window query.
func Fig9(scale Scale) ([]SystemRow, error) {
	scale = scale.withDefaults()
	cost := simclock.Default()
	scenarios := []struct {
		name   string
		k      int
		thres  float64
		window int
	}{
		{"top50", 50, 0.9, 0},
		{"top100", 100, 0.9, 0},
		{"top50-thres0.75", 50, 0.75, 0},
		{"top50-window30", 50, 0.9, 30},
	}
	var rows []SystemRow
	for _, spec := range video.DashcamDatasets() {
		// The dashcam corpora are only 3 hours long, so the global 1/400
		// scale would leave a few hundred frames; floor them at a size
		// where Phase 1's fixed sampling bill amortizes.
		frames := scale.framesFor(spec)
		if scale.Frames == 0 && frames < 20000 {
			frames = 20000
		}
		src, err := spec.Build(frames)
		if err != nil {
			return nil, err
		}
		udf := vision.TailgateUDF{}
		scanMS := cost.LabelMS(src.NumFrames(), udf.OracleCostMS(cost))
		for _, sc := range scenarios {
			maxK := src.NumFrames() / 10
			if sc.window > 0 {
				maxK = src.NumFrames() / sc.window / 2
			}
			cfg := scale.everestConfig(boundK(sc.k, maxK), sc.thres)
			cfg.Window = sc.window
			res, err := everest.Run(src, udf, cfg)
			if err != nil {
				return nil, err
			}
			var q metrics.Quality
			if sc.window > 0 {
				truth := metrics.SlidingWindowTruth(src, udf, sc.window, sc.window)
				top := metrics.TrueTopK(truth, cfg.K)
				q = metrics.Evaluate(res.IDs, func(w int) float64 { return truth[w].Score }, top)
			} else {
				truth := metrics.FrameTruth(src, udf)
				top := metrics.TrueTopK(truth, cfg.K)
				q = metrics.Evaluate(res.IDs, func(i int) float64 { return truth[i].Score }, top)
			}
			rows = append(rows, SystemRow{
				Dataset: spec.Name,
				System:  sc.name,
				MS:      res.Clock.TotalMS(),
				Speedup: metrics.Speedup(scanMS, res.Clock.TotalMS()),
				Quality: q,
				Note:    fmt.Sprintf("conf=%.3f", res.Confidence),
			})
		}
	}
	return rows, nil
}

// LambdaRow is one λ setting of the Select-and-Topk sensitivity study:
// the paper's argument against the rewrite is that λ must be hand-tuned
// per dataset — too small floods the oracle, too large returns fewer than
// K frames or misses the true top.
type LambdaRow struct {
	Dataset    string
	Lambda     float64
	Candidates int
	MS         float64
	Speedup    float64
	Quality    metrics.Quality
	Failed     bool
}

// SelectTopkSensitivity sweeps λ on every counting dataset.
func SelectTopkSensitivity(scale Scale, k int) ([]LambdaRow, error) {
	scale = scale.withDefaults()
	cost := simclock.Default()
	var rows []LambdaRow
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		kk := boundK(k, src.NumFrames()/10)
		udf := vision.CountUDF{Class: src.TargetClass()}
		truth := metrics.FrameTruth(src, udf)
		topTruth := metrics.TrueTopK(truth, kk)
		trueScore := func(i int) float64 { return truth[i].Score }
		scanMS := cost.LabelMS(src.NumFrames(), udf.OracleCostMS(cost))

		p1opt := phase1.Options{Proxy: scale.proxyConfig(), Cost: cost, Seed: scale.Seed}
		outs, err := baselines.SelectAndTopk(src, udf, kk, p1opt, nil)
		if err != nil {
			return nil, err
		}
		for _, o := range outs {
			row := LambdaRow{
				Dataset:    spec.Name,
				Lambda:     o.Lambda,
				Candidates: o.Candidates,
				MS:         o.MS,
				Speedup:    metrics.Speedup(scanMS, o.MS),
				Failed:     o.Failed,
			}
			if !o.Failed {
				row.Quality = metrics.Evaluate(o.IDs, trueScore, topTruth)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
