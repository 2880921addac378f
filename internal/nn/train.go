package nn

import (
	"fmt"

	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// Model is the CMDN's density network: a dense hidden layer with ReLU
// activations feeding an MDN head. Predict yields the score mixture for
// one input.
type Model struct {
	hidden *Dense
	relu   *ReLU
	head   *MDN
	// all holds every weight in one block and every gradient in another:
	// the hidden layer's weights and biases, then the head's. The layers'
	// Params are views of it, and Fit's optimizer steps it as one tensor.
	all *Param
	// moments is room for Fit's Adam moments, twice len(all.W), cut from
	// all's allocation (and shared, like it, by inference clones). Fit
	// clears it first: no optimizer state outlives a Fit.
	moments []float64
}

// NewModel builds Dense(in→h) → ReLU → MDN(h, g), drawing the hidden
// layer's initial weights from r before the head's.
func NewModel(in, h, g int, r *xrand.RNG) *Model {
	m := modelOf(in, h, g)
	m.hidden.heInit(r)
	m.head.dense.heInit(r)
	m.head.initBiases()
	return m
}

// modelOf lays a zero model of the given shape over one allocation: the
// weights, their gradients, and the moments.
func modelOf(in, h, g int) *Model {
	n := denseSize(in, h) + denseSize(h, 3*g)
	buf := make([]float64, 4*n)
	all := &Param{W: buf[:n:n], G: buf[n : 2*n : 2*n]}
	rest := *all
	hidden := denseOver(in, h, &rest)
	head := newMDN(g, denseOver(h, 3*g, &rest))
	return &Model{hidden: hidden, relu: &ReLU{}, head: head, all: all, moments: buf[2*n:]}
}

// InputSize is the length of one input row.
func (m *Model) InputSize() int { return m.hidden.in }

// forward moves a batch of rows through the model and returns the first
// row's mixture.
func (m *Model) forward(x []float64) uncertain.Mixture {
	return m.head.Forward(m.relu.Forward(m.hidden.Forward(x)))
}

// Predict returns the predicted score distribution for input x. The
// returned Mixture is backed by model-owned scratch and valid until the
// next Predict/NLL on this model; callers that retain it must copy.
func (m *Model) Predict(x []float64) uncertain.Mixture { return m.forward(x) }

// NLL returns the negative log-likelihood of target y under the mixture
// predicted for input x.
func (m *Model) NLL(x []float64, y float64) float64 {
	m.forward(x)
	return m.head.NLL(y)
}

// CloneForInference returns a model that shares m's trained weights but
// owns private activation scratch. Clones support concurrent Predict (one
// goroutine per clone) as long as no goroutine trains the shared weights
// at the same time.
func (m *Model) CloneForInference() *Model {
	return &Model{hidden: m.hidden.shared(), relu: &ReLU{}, head: m.head.cloneForInference(), all: m.all, moments: m.moments}
}

// Clone returns a deep copy of the model: fresh parameter tensors with
// the trained weights copied and gradients cleared. Unlike
// CloneForInference the clone owns its weights, so it can keep training
// — the warm-start path of streaming ingestion fine-tunes a clone of
// the previous segment's model without mutating the original. Optimizer
// state is not part of a Model; a subsequent Fit starts fresh Adam
// moments, as any Fit does.
func (m *Model) Clone() *Model {
	c := modelOf(m.hidden.in, m.hidden.out, m.head.g)
	copy(c.all.W, m.all.W)
	return c
}

// NumParams is the model's trainable-parameter count — what one sample's
// forward and backward pass, and one optimizer step, cost in proportion to.
func (m *Model) NumParams() int { return len(m.all.W) }

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
// Each epoch draws a permutation, and each minibatch — BatchSize
// consecutive entries of it, the last one possibly short — is gathered
// into one contiguous block and moves through the hidden layer and the
// head as a unit. Rows are independent on the way up, and on the way down
// every gradient accumulator receives its terms in row order, so the
// weights are bit for bit those of visiting the permutation one sample at
// a time (reference_test.go keeps that loop and compares). A row whose
// length is not InputSize is an error, not a misread. The permutation
// and the batch block are allocated once per Fit; the Adam moments are
// the model's own block, cleared.
func (m *Model) Fit(xs [][]float64, ys []float64, cfg TrainConfig) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("nn: %d inputs but %d targets", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, fmt.Errorf("nn: empty training set")
	}
	cfg = cfg.withDefaults()
	in := m.hidden.in
	for i, x := range xs {
		if len(x) != in {
			return 0, fmt.Errorf("nn: input %d has %d values, the model takes %d", i, len(x), in)
		}
	}
	clear(m.moments)
	opt := newAdam([]*Param{m.all}, m.moments, cfg.LearningRate)
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
			y := by[:len(idx)]
			m.forward(bx[:len(idx)*in])
			if ep == cfg.Epochs-1 {
				for s, target := range y {
					total += m.head.rowNLL(s, target)
				}
			}
			// Nothing sits below the hidden layer, so its input gradient
			// is never computed.
			m.hidden.Backward(m.relu.Backward(m.head.Backward(y)), false)
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
		total += m.NLL(x, ys[i])
	}
	return total / float64(len(xs))
}
