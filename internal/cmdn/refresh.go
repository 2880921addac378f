// Warm-start refresh: the streaming-ingestion alternative to a full
// grid Train. A live camera closes one CMDN segment every few thousand
// frames; retraining the 12-point hyperparameter grid from scratch per
// segment costs O(retrain) when the scene usually has not changed.
// Refresh deep-clones the previous segment's selected model and
// fine-tunes it for a few epochs on the new segment's samples, and
// DriftNLL is the pre-check that decides whether warm-starting is safe
// or the scene has drifted enough to deserve a full specialize.
package cmdn

import (
	"fmt"

	"github.com/everest-project/everest/internal/nn"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/xrand"
)

// A refresh fine-tunes for refreshEpochs (vs a full train's 35: the
// weights start near an optimum for the previous segment) at
// refreshLearningRate, lower than a cold train's learningRate so the
// inherited weights are adjusted, not overwritten.
const (
	refreshEpochs       = 5
	refreshLearningRate = 2e-3
)

// RefreshConfig controls a warm-start refresh.
type RefreshConfig struct {
	// Seed drives the fine-tune shuffling.
	Seed uint64
	// Procs is ignored: a refresh fine-tunes one model and calibrates
	// it on the calling goroutine. The field remains only for the
	// benchmark driver, which still sets it.
	Procs int
}

// DriftNLL measures how well the trained proxy explains newly labelled
// holdout samples: their mean NLL under p, computed in p's standardized
// target space — directly comparable to p.HoldoutNLL(), which is the
// same statistic on the holdout set p was selected with. A DriftNLL
// far above HoldoutNLL means the score distribution has moved and a
// warm start would inherit stale structure.
func (p *Proxy) DriftNLL(holdout []Sample) float64 {
	if len(holdout) == 0 {
		return 0
	}
	hx := make([][]float64, len(holdout))
	hy := make([]float64, len(holdout))
	for i, s := range holdout {
		hx[i] = s.X
		hy[i] = (s.Y - p.yMean) / p.yStd
	}
	return p.model.CloneForInference().MeanNLL(hx, hy)
}

// Refresh warm-starts a proxy from prev: the selected model is
// deep-cloned (prev is never mutated) and fine-tuned on the new
// segment's training samples in prev's standardized target space — the
// space the inherited weights are meaningful in — then re-evaluated on
// the new holdout set and σ-recalibrated on calib (typically a
// reservoir of held-out samples spanning past segments plus the new
// holdout, so calibration reflects the whole stream, not one segment).
// Every sample's feature vector must be as long as prev's input; another
// width is an error.
//
// full is the Config a cold specialize would have used; it prices the
// charge. A full Train costs ProxyTrainSampleMS per sample with the
// grid width and epoch count baked into the constant, so the refresh
// charges the fraction it actually trains: one model instead of
// len(full.Grid), refreshEpochs instead of full.Epochs. With the defaults
// (5 epochs, 12-point grid, 35 full epochs) that is ~1/84 of a full
// specialize over the same samples — the O(retrain) → O(chunk) win the
// streaming ingestor banks per segment.
func Refresh(prev *Proxy, train, holdout, calib []Sample, cfg RefreshConfig, full Config, clock *simclock.Clock, cost simclock.CostModel) (*Proxy, error) {
	if prev == nil {
		return nil, fmt.Errorf("cmdn: refresh needs a previous proxy")
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("cmdn: no training samples")
	}
	if len(holdout) == 0 {
		return nil, fmt.Errorf("cmdn: no holdout samples")
	}
	full = full.withDefaults()
	if len(calib) == 0 {
		calib = holdout
	}
	in := prev.model.InputSize()
	if err := checkWidth("holdout", holdout, in); err != nil {
		return nil, err
	}
	if err := checkWidth("calibration", calib, in); err != nil {
		return nil, err
	}

	xs := make([][]float64, len(train))
	ys := make([]float64, len(train))
	for i, s := range train {
		xs[i] = s.X
		ys[i] = (s.Y - prev.yMean) / prev.yStd
	}
	model := prev.model.Clone()
	if _, err := model.Fit(xs, ys, nn.TrainConfig{
		Epochs:       refreshEpochs,
		LearningRate: refreshLearningRate,
		Seed:         xrand.New(cfg.Seed).Split("cmdn/refresh").Uint64(),
	}); err != nil {
		return nil, err
	}

	hx := make([][]float64, len(holdout))
	hy := make([]float64, len(holdout))
	for i, s := range holdout {
		hx[i] = s.X
		hy[i] = (s.Y - prev.yMean) / prev.yStd
	}
	next := &Proxy{
		model: model, hyper: prev.hyper,
		yMean: prev.yMean, yStd: prev.yStd,
		holdoutNLL: model.MeanNLL(hx, hy),
	}

	cx := make([][]float64, len(calib))
	cy := make([]float64, len(calib))
	for i, s := range calib {
		cx[i] = s.X
		cy[i] = (s.Y - prev.yMean) / prev.yStd
	}
	next.calibrate(cx, cy)

	frac := float64(refreshEpochs) / float64(full.Epochs) / float64(len(full.Grid))
	clock.Charge(simclock.PhaseTrainCMDN, cost.ProxyTrainSampleMS*float64(len(train)+len(holdout))*frac)
	return next, nil
}
