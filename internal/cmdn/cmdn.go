// Package cmdn implements Everest's proxy scorer (§3.2): a mixture
// density network trained per query on oracle-labelled sample frames,
// selected over a hyperparameter grid by holdout negative log-likelihood,
// and applied to every retained frame to produce the score distributions
// of the initial uncertain relation D0.
//
// The paper's CMDN is five 3×3 conv + 2×2 max-pool stages over 128×128
// inputs (Fig. 2) in PyTorch on a GPU. Those conv stages are not
// reproduced. The backbone here is a fixed average-pooling feature pyramid
// (ExtractFeatures) feeding one trained dense ReLU layer and the MDN head
// (nn.NewModel) — two orders of magnitude cheaper on one CPU core, and
// enough for the synthetic renderer's frames. The training pipeline —
// sample, label with the oracle, train the g×h grid, pick by holdout NLL —
// is exactly the paper's, and so is the simulated training cost charged to
// the clock.
package cmdn

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/everest-project/everest/internal/nn"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/workpool"
	"github.com/everest-project/everest/internal/xrand"
)

// Arch names the feature backbone. ArchPooled, the fixed average-pooling
// pyramid, is the only one; Train rejects any other value.
type Arch int

// ArchPooled is the average-pooling feature pyramid of ExtractFeatures.
const ArchPooled Arch = 0

// learningRate is the Adam step size of a cold grid train.
const learningRate = 5e-3

// Hyper is one grid point: g Gaussians in the mixture and h hidden units
// in the MDN layer (the paper's "hypotheses").
type Hyper struct {
	G, H int
}

// PaperGrid returns the paper's 4×3 hyperparameter grid:
// g ∈ {5,8,12,15}, h ∈ {20,30,40}.
func PaperGrid() []Hyper {
	var grid []Hyper
	for _, g := range []int{5, 8, 12, 15} {
		for _, h := range []int{20, 30, 40} {
			grid = append(grid, Hyper{G: g, H: h})
		}
	}
	return grid
}

// Config controls proxy training.
type Config struct {
	// Arch names the backbone; it must be ArchPooled (the zero value).
	Arch Arch
	// Grid is the hyperparameter grid; nil means PaperGrid().
	Grid []Hyper
	// Epochs per candidate model; zero means 35.
	Epochs int
	// Seed drives initialization and shuffling.
	Seed uint64
	// FrameW, FrameH are the source resolution, which fixes the feature
	// width (FeatureSize); zero means 64.
	FrameW, FrameH int
	// Procs bounds the workers the grid trains on (Phase 1 sets it);
	// ≤ 0 means GOMAXPROCS. Holdout evaluation and calibration are
	// serial. Results are bit-identical for every value.
	Procs int
}

func (c Config) withDefaults() Config {
	if c.Grid == nil {
		c.Grid = PaperGrid()
	}
	if c.Epochs == 0 {
		c.Epochs = 35
	}
	if c.FrameW == 0 {
		c.FrameW = 64
	}
	if c.FrameH == 0 {
		c.FrameH = 64
	}
	return c
}

// Sample is one labelled training example.
type Sample struct {
	// Frame is the frame index (kept for bookkeeping).
	Frame int
	// X is the frame's feature vector (ExtractFeatures).
	X []float64
	// Y is the oracle score.
	Y float64
}

// Proxy is a trained CMDN: it maps a frame's features to a score mixture.
// A Proxy processes one frame at a time and is not safe for concurrent
// use; CloneForInference returns weight-sharing clones for parallel
// inference sweeps.
type Proxy struct {
	model       *nn.Model
	hyper       Hyper
	yMean, yStd float64
	holdoutNLL  float64
	// calib is a post-hoc variance calibration factor: the holdout RMS of
	// standardized residuals. When the network's σ underestimates its own
	// error, every predicted σ is inflated by calib, so Phase 2's p̂ stays
	// an honest probability instead of silently excluding frames the
	// proxy is confidently wrong about.
	calib float64
	// featBuf is PredictFrame's reusable feature-extraction scratch.
	featBuf []float64
}

// CloneForInference returns a proxy sharing the trained weights with
// private inference scratch. N clones may PredictFrame concurrently on N
// goroutines; predictions are bit-identical to the original's.
func (p *Proxy) CloneForInference() *Proxy {
	c := *p
	c.model = p.model.CloneForInference()
	c.featBuf = nil
	return &c
}

// Calibration returns the σ inflation factor applied to predictions.
func (p *Proxy) Calibration() float64 { return p.calib }

// Hyper returns the selected grid point.
func (p *Proxy) Hyper() Hyper { return p.hyper }

// HoldoutNLL returns the selection criterion value of the chosen model.
func (p *Proxy) HoldoutNLL() float64 { return p.holdoutNLL }

// CandidateReport records one grid candidate's holdout NLL.
type CandidateReport struct {
	Hyper      Hyper
	HoldoutNLL float64
}

// ExtractFeatures computes the proxy's feature vector of a frame: an
// 8×8 average-pool grid plus row and column means, centred around the
// frame mean. The pyramid preserves spatial occupancy — the signal that
// correlates with object counts and apparent object size.
func ExtractFeatures(f video.Frame) []float64 {
	return AppendFeatures(make([]float64, 0, FeatureSize(f.W, f.H)), f)
}

// AppendFeatures appends the feature vector of f to dst and
// returns the extended slice — the allocation-free form of
// ExtractFeatures for hot loops that reuse a scratch buffer.
//
// One raster pass advances the frame mean, the 8×8 cell sums and the
// 4-row band sums together; the 4-column bands then run four at a time.
// Every sum still adds its pixels in the order of the one-sum-per-pass
// definition — a cell or row band row-major, a column band column by
// column — so the features are bit-identical to it.
func AppendFeatures(dst []float64, f video.Frame) []float64 {
	const grid = 8
	w, h := f.W, f.H
	cellW, cellH := w/grid, h/grid
	rows, cols := (h+3)/4, (w+3)/4
	at := len(dst)
	feats := slices.Grow(dst, grid*grid+rows+cols+1)[:at+grid*grid+rows+cols+1]
	out := feats[at:]
	var cells [grid * grid]float64
	mean, band := 0.0, 0.0
	for y := 0; y < h; y++ {
		row := f.Pix[y*w : (y+1)*w]
		x := 0
		if cellH > 0 && y < grid*cellH {
			c := cells[y/cellH*grid:][:grid]
			for gx := range c {
				s := c[gx]
				for _, v := range row[x : x+cellW] {
					mean += v
					band += v
					s += v
				}
				c[gx] = s
				x += cellW
			}
		}
		for _, v := range row[x:] {
			mean += v
			band += v
		}
		if y%4 == 3 || y == h-1 {
			out[grid*grid+y/4] = band
			band = 0
		}
	}
	mean /= float64(len(f.Pix))
	for i, s := range cells {
		out[i] = s/float64(cellW*cellH) - mean
	}
	for i, s := range out[grid*grid : grid*grid+rows] {
		out[grid*grid+i] = s/float64(4*w) - mean
	}
	colOut := out[grid*grid+rows : grid*grid+rows+cols]
	b := 0
	for ; 4*b+16 <= w; b += 4 {
		var s0, s1, s2, s3 float64
		for x := 4 * b; x < 4*b+4; x++ {
			for y := 0; y < h; y++ {
				r := f.Pix[y*w+x:][:13]
				s0 += r[0]
				s1 += r[4]
				s2 += r[8]
				s3 += r[12]
			}
		}
		colOut[b], colOut[b+1], colOut[b+2], colOut[b+3] = s0, s1, s2, s3
	}
	for ; b < cols; b++ {
		s := 0.0
		for x := 4 * b; x < 4*b+4 && x < w; x++ {
			for y := 0; y < h; y++ {
				s += f.Pix[y*w+x]
			}
		}
		colOut[b] = s
	}
	for i, s := range colOut {
		colOut[i] = s/float64(4*h) - mean
	}
	out[len(out)-1] = mean
	return feats
}

// FeatureSize returns the feature length for a resolution:
// 64 cells, one per 4-row band and per 4-column band (a partial band at
// the edge counts), and the mean.
func FeatureSize(w, h int) int { return 64 + (h+3)/4 + (w+3)/4 + 1 }

// checkWidth returns an error naming the first sample whose feature
// vector is not in values long.
func checkWidth(what string, samples []Sample, in int) error {
	for i, s := range samples {
		if len(s.X) != in {
			return fmt.Errorf("cmdn: %s sample %d has %d features, the model takes %d", what, i, len(s.X), in)
		}
	}
	return nil
}

// standardize splits samples into their feature vectors and their
// targets in the standardized space (Y − mean) / std the MDN works in.
func standardize(samples []Sample, mean, std float64) ([][]float64, []float64) {
	xs := make([][]float64, len(samples))
	ys := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.X
		ys[i] = (s.Y - mean) / std
	}
	return xs, ys
}

// Train fits one model per grid point on the training samples, evaluates
// each on the holdout set, and returns the model with the smallest holdout
// NLL (§3.2). Every sample's feature vector must be
// FeatureSize(cfg.FrameW, cfg.FrameH) long; another width is an error.
// Training cost is charged to PhaseTrainCMDN. The proxy, the reports and
// the charge are bit-identical for every Procs and do not depend on which
// worker trains which point or in what order.
func Train(train, holdout []Sample, cfg Config, clock *simclock.Clock, cost simclock.CostModel) (*Proxy, []CandidateReport, error) {
	cfg = cfg.withDefaults()
	if len(train) == 0 {
		return nil, nil, fmt.Errorf("cmdn: no training samples")
	}
	if len(holdout) == 0 {
		return nil, nil, fmt.Errorf("cmdn: no holdout samples")
	}
	if cfg.Arch != ArchPooled {
		return nil, nil, fmt.Errorf("cmdn: unknown architecture %d", cfg.Arch)
	}
	if cfg.FrameW < 8 || cfg.FrameH < 8 {
		return nil, nil, fmt.Errorf("cmdn: the feature pyramid needs at least 8x8 pixels for its 8x8 grid, got %dx%d", cfg.FrameW, cfg.FrameH)
	}
	in := FeatureSize(cfg.FrameW, cfg.FrameH)
	if err := checkWidth("holdout", holdout, in); err != nil {
		return nil, nil, err
	}

	// Normalize targets; the MDN trains in standardized space.
	var mean, sq float64
	for _, s := range train {
		mean += s.Y
	}
	mean /= float64(len(train))
	for _, s := range train {
		d := s.Y - mean
		sq += d * d
	}
	std := math.Sqrt(sq / float64(len(train)))
	if std < 1e-6 {
		std = 1
	}

	xs, ys := standardize(train, mean, std)
	hx, hy := standardize(holdout, mean, std)

	// Each grid point draws from an independent RNG stream keyed by its
	// index (SplitIndex does not advance the parent) — first its initial
	// weights, then its shuffling seed — so candidates may train on any
	// worker in any order and still come out bit-identical to the serial
	// loop. Building is cheap and happens here, in grid order; only the
	// fits are farmed out.
	root := xrand.New(cfg.Seed).Split("cmdn/train")
	models := make([]*nn.Model, len(cfg.Grid))
	fitSeeds := make([]uint64, len(cfg.Grid))
	weight := make([]int, len(cfg.Grid))
	for gi, hyp := range cfg.Grid {
		r := root.SplitIndex(uint64(gi))
		models[gi] = nn.NewModel(in, hyp.H, hyp.G, r)
		fitSeeds[gi], weight[gi] = r.Uint64(), models[gi].NumParams()
	}

	// Longest processing time first: a fit's cost is proportional to its
	// parameter count, and workers claim positions of this order one by
	// one, so issuing the big points first keeps a small one, not a big
	// one, as the last to finish. The order decides only who trains what
	// when — models and errors are stored by grid index, and no fit reads
	// another's state — so it cannot change a result.
	order := make([]int, len(cfg.Grid))
	for gi := range order {
		order[gi] = gi
	}
	sort.SliceStable(order, func(a, b int) bool { return weight[order[a]] > weight[order[b]] })
	fitErrs := make([]error, len(cfg.Grid))
	workpool.ForEach(cfg.Procs, len(order), func(_, k int) {
		gi := order[k]
		_, fitErrs[gi] = models[gi].Fit(xs, ys, nn.TrainConfig{
			Epochs:       cfg.Epochs,
			LearningRate: learningRate,
			Seed:         fitSeeds[gi],
		})
	})
	for _, err := range fitErrs {
		if err != nil {
			return nil, nil, err
		}
	}

	var best *Proxy
	reports := make([]CandidateReport, 0, len(cfg.Grid))
	for gi, hyp := range cfg.Grid {
		nll := models[gi].MeanNLL(hx, hy)
		reports = append(reports, CandidateReport{Hyper: hyp, HoldoutNLL: nll})
		if best == nil || nll < best.holdoutNLL {
			best = &Proxy{model: models[gi], hyper: hyp, yMean: mean, yStd: std, holdoutNLL: nll}
		}
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].HoldoutNLL < reports[j].HoldoutNLL })
	best.calibrate(hx, hy)
	clock.Charge(simclock.PhaseTrainCMDN, cost.TrainMS(len(train)+len(holdout)))
	return best, reports, nil
}

// calibrate computes the holdout RMS of standardized residuals
// z = (y − μ̂)/σ̂ and stores max(1, RMS) as the σ inflation factor.
func (p *Proxy) calibrate(hx [][]float64, hy []float64) {
	p.calib = 1
	if len(hx) == 0 {
		return
	}
	sumSq := 0.0
	for i, x := range hx {
		mix := p.model.Predict(x)
		sd := math.Sqrt(mix.Variance())
		if sd < 1e-9 {
			sd = 1e-9
		}
		z := (hy[i] - mix.Mean()) / sd
		sumSq += z * z
	}
	rms := math.Sqrt(sumSq / float64(len(hx)))
	if rms > 1 {
		p.calib = rms
	}
}

// pruneWeight drops mixture components below this weight. Softmax never
// outputs an exact zero, so every MDN carries vestigial components that
// training parked at arbitrary means with ~10⁻³ weight; left in place,
// their stray tail mass above the Top-K threshold forces Phase 2 to clean
// thousands of frames that are not real contenders.
const pruneWeight = 0.02

// Predict returns the de-standardized, calibration-inflated score mixture
// for a feature vector, with vestigial components pruned and the remaining
// weights renormalized.
func (p *Proxy) Predict(x []float64) uncertain.Mixture {
	mix := p.model.Predict(x)
	calib := p.calib
	if calib < 1 {
		calib = 1
	}
	// Count the kept components first so the mixture is allocated at the
	// size it keeps: a pruned MDN of G = 5–15 components keeps about two.
	keep := 0
	for _, c := range mix {
		if c.Weight >= pruneWeight {
			keep++
		}
	}
	out := make(uncertain.Mixture, 0, keep)
	kept := 0.0
	for _, c := range mix {
		if c.Weight < pruneWeight {
			continue
		}
		kept += c.Weight
		out = append(out, uncertain.GaussianComponent{
			Weight: c.Weight,
			Mean:   c.Mean*p.yStd + p.yMean,
			Sigma:  math.Max(c.Sigma*p.yStd*calib, 1e-6),
		})
	}
	if len(out) == 0 {
		// Degenerate case: keep the heaviest component.
		best := 0
		for i, c := range mix {
			if c.Weight > mix[best].Weight {
				best = i
			}
		}
		c := mix[best]
		return uncertain.Mixture{{
			Weight: 1,
			Mean:   c.Mean*p.yStd + p.yMean,
			Sigma:  math.Max(c.Sigma*p.yStd*calib, 1e-6),
		}}
	}
	for i := range out {
		out[i].Weight /= kept
	}
	return out
}

// PredictFrame renders nothing; it extracts the given decoded frame's
// features (into proxy-owned scratch) and predicts.
func (p *Proxy) PredictFrame(f video.Frame) uncertain.Mixture {
	p.featBuf = AppendFeatures(p.featBuf[:0], f)
	return p.Predict(p.featBuf)
}
