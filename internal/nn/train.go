package nn

import (
	"fmt"

	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// Model is a complete density network: a feature backbone followed by an
// MDN head. Predict yields the score mixture for one input.
type Model struct {
	// Backbone maps raw inputs to features (may be nil for identity).
	Backbone Layer
	// Head is the mixture-density output.
	Head *MDN
}

// Predict returns the predicted score distribution for input x. The
// returned Mixture is backed by model-owned scratch and valid until the
// next Predict/Forward on this model; callers that retain it must copy.
func (m *Model) Predict(x []float64) uncertain.Mixture {
	if m.Backbone != nil {
		x = m.Backbone.Forward(x)
	}
	return m.Head.Forward(x)
}

// CloneForInference returns a model that shares m's trained weights but
// owns private activation scratch. Clones support concurrent Predict (one
// goroutine per clone) as long as no goroutine trains the shared weights
// at the same time.
func (m *Model) CloneForInference() *Model {
	c := &Model{Head: m.Head.cloneForInference()}
	if m.Backbone != nil {
		c.Backbone = cloneLayerForInference(m.Backbone)
	}
	return c
}

// Clone returns a deep copy of the model: fresh parameter tensors with
// the trained weights copied and gradients cleared. Unlike
// CloneForInference the clone owns its weights, so it can keep training
// — the warm-start path of streaming ingestion fine-tunes a clone of
// the previous segment's model without mutating the original. Optimizer
// state is not part of a Model; a subsequent Fit starts fresh Adam
// moments, as any Fit does.
func (m *Model) Clone() *Model {
	c := &Model{Head: m.Head.clone()}
	if m.Backbone != nil {
		c.Backbone = cloneLayerForTraining(m.Backbone)
	}
	return c
}

// params collects all trainable parameters.
func (m *Model) params() []*Param {
	var ps []*Param
	if m.Backbone != nil {
		ps = append(ps, m.Backbone.Params()...)
	}
	return append(ps, m.Head.Params()...)
}

// TrainConfig controls Fit.
type TrainConfig struct {
	// Epochs is the number of passes over the data.
	Epochs int
	// LearningRate for Adam; zero means 5e-3.
	LearningRate float64
	// BatchSize between optimizer steps; zero means 16.
	BatchSize int
	// Seed drives shuffling.
	Seed uint64
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.LearningRate == 0 {
		c.LearningRate = 5e-3
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	return c
}

// Fit trains the model by minibatch Adam on the NLL and returns the final
// mean training NLL.
func (m *Model) Fit(xs [][]float64, ys []float64, cfg TrainConfig) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	cfg = cfg.withDefaults()
	opt := NewAdam(m.params(), cfg.LearningRate)
	r := xrand.New(cfg.Seed).Split("nn/fit")
	var last float64
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm := r.Perm(len(xs))
		total := 0.0
		inBatch := 0
		for _, i := range perm {
			x := xs[i]
			if m.Backbone != nil {
				x = m.Backbone.Forward(x)
			}
			m.Head.Forward(x)
			total += m.Head.NLL(ys[i])
			gradFeat := m.Head.Backward(ys[i])
			if m.Backbone != nil {
				// Nothing sits below the backbone, so its input gradient
				// is never computed.
				backwardParams(m.Backbone, gradFeat)
			}
			inBatch++
			if inBatch == cfg.BatchSize {
				opt.Step()
				inBatch = 0
			}
		}
		if inBatch > 0 {
			opt.Step()
		}
		last = total / float64(len(xs))
	}
	return last, nil
}

// MeanNLL evaluates the mean NLL on a holdout set — the model-selection
// criterion of §3.2.
func (m *Model) MeanNLL(xs [][]float64, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for i, x := range xs {
		m.Predict(x)
		total += m.Head.NLL(ys[i])
	}
	return total / float64(len(xs))
}
