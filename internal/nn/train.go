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

// NumParams is the model's trainable-parameter count — what one sample's
// forward and backward pass, and one optimizer step, cost in proportion to.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.params() {
		n += len(p.W)
	}
	return n
}

// TrainConfig controls Fit.
type TrainConfig struct {
	// Epochs is the number of passes over the data.
	Epochs int
	// LearningRate for Adam; zero means 5e-3.
	LearningRate float64
	// BatchSize between optimizer steps; zero (or less) means 16.
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
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	return c
}

// Fit trains the model by minibatch Adam on the NLL and returns the mean
// training NLL of the final epoch (each sample scored as it is visited,
// before its batch's step; earlier epochs' losses are never read, so they
// are not computed).
//
// There is one training loop, whatever the architecture: each epoch draws
// a permutation, and each minibatch — BatchSize consecutive entries of it,
// the last one possibly short — is gathered into one contiguous block and
// moves through the backbone and the head as a unit. Rows are independent
// on the way up, and on the way down every gradient accumulator receives
// its terms in row order, so the weights are bit for bit those of visiting
// the permutation one sample at a time (reference_test.go keeps that loop
// and compares). The permutation, the batch block and the Adam moments are
// allocated once per Fit.
func (m *Model) Fit(xs [][]float64, ys []float64, cfg TrainConfig) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	cfg = cfg.withDefaults()
	in := len(xs[0])
	for i, x := range xs {
		if len(x) != in {
			return 0, fmt.Errorf("nn: input %d has %d values, input 0 has %d", i, len(x), in)
		}
	}
	opt := NewAdam(m.params(), cfg.LearningRate)
	r := xrand.New(cfg.Seed).Split("nn/fit")
	perm := make([]int, len(xs))
	batch := min(cfg.BatchSize, len(xs))
	bx := make([]float64, batch*in)
	by := make([]float64, batch)
	total := 0.0
	for ep := 0; ep < cfg.Epochs; ep++ {
		perm = r.PermInto(perm, len(xs))
		total = 0
		for lo := 0; lo < len(perm); lo += batch {
			idx := perm[lo:min(lo+batch, len(perm))]
			for s, i := range idx {
				copy(bx[s*in:(s+1)*in], xs[i])
				by[s] = ys[i]
			}
			x, y := bx[:len(idx)*in], by[:len(idx)]
			if m.Backbone != nil {
				x = m.Backbone.Forward(x)
			}
			m.Head.Forward(x)
			if ep == cfg.Epochs-1 {
				for s, target := range y {
					total += m.Head.rowNLL(s, target)
				}
			}
			gradFeat := m.Head.Backward(y)
			if m.Backbone != nil {
				// Nothing sits below the backbone, so its input gradient
				// is never computed.
				m.Backbone.Backward(gradFeat, false)
			}
			opt.Step()
		}
	}
	return total / float64(len(xs)), nil
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
