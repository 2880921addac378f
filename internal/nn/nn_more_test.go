package nn

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)² + (v+2)²; Adam must approach the optimum.
	p := newParam(2)
	p.W[0], p.W[1] = 10, 10
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		p.G[0] = 2 * (p.W[0] - 3)
		p.G[1] = 2 * (p.W[1] + 2)
		opt.Step()
	}
	if math.Abs(p.W[0]-3) > 0.05 || math.Abs(p.W[1]+2) > 0.05 {
		t.Fatalf("Adam did not converge: %v", p.W)
	}
}

func TestAdamStepClearsGradients(t *testing.T) {
	p := newParam(1)
	p.G[0] = 5
	NewAdam([]*Param{p}, 0.01).Step()
	if p.G[0] != 0 {
		t.Fatal("Step must clear gradients")
	}
}

func TestZeroGrad(t *testing.T) {
	p := newParam(3)
	for i := range p.G {
		p.G[i] = float64(i + 1)
	}
	p.ZeroGrad()
	for _, g := range p.G {
		if g != 0 {
			t.Fatal("ZeroGrad incomplete")
		}
	}
}

func TestDenseInputSizePanic(t *testing.T) {
	d := NewDense(3, 2, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size should panic")
		}
	}()
	d.Forward([]float64{1, 2})
}

func TestConvInputSizePanic(t *testing.T) {
	c := NewConv2D(1, 4, 4, 2, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size should panic")
		}
	}()
	c.Forward(make([]float64, 15))
}

func TestMaxPoolOddDimsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd pooling dims should panic")
		}
	}()
	NewMaxPool2D(1, 3, 4)
}

func TestSequentialOutSize(t *testing.T) {
	r := xrand.New(2)
	s := NewSequential(NewDense(4, 8, r), NewReLU(8), NewDense(8, 3, r))
	if s.OutSize() != 3 {
		t.Fatalf("OutSize = %d", s.OutSize())
	}
	if len(s.Params()) != 4 { // two dense layers × (w, b)
		t.Fatalf("Params = %d", len(s.Params()))
	}
}

func TestMDNSigmaFloor(t *testing.T) {
	// Force tiny sigmas via the raw output and verify the floor holds.
	r := xrand.New(3)
	m := NewMDN(2, 3, r)
	// Push log-sigma biases far below the floor.
	for j := 0; j < 3; j++ {
		m.dense.b.W[6+j] = -100
	}
	mix := m.Forward([]float64{0, 0})
	for _, c := range mix {
		if c.Sigma < math.Exp(minLogSigma)-1e-12 {
			t.Fatalf("sigma %v below floor", c.Sigma)
		}
	}
	// NLL stays finite even at the floor.
	if nll := m.NLL(1000); math.IsInf(nll, 0) || math.IsNaN(nll) {
		t.Fatalf("NLL not finite: %v", nll)
	}
}

func TestMDNWeightsSumToOne(t *testing.T) {
	r := xrand.New(5)
	m := NewMDN(4, 6, r)
	x := make([]float64, 4)
	for trial := 0; trial < 20; trial++ {
		for i := range x {
			x[i] = r.Norm() * 3
		}
		mix := m.Forward(x)
		sum := 0.0
		for _, c := range mix {
			sum += c.Weight
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("weights sum to %v", sum)
		}
	}
}

func TestModelPredictWithoutBackbone(t *testing.T) {
	m := &Model{Head: NewMDN(3, 2, xrand.New(7))}
	mix := m.Predict([]float64{1, 2, 3})
	if err := mix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.Epochs == 0 || c.LearningRate == 0 || c.BatchSize == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestBackwardParamsMatchesBackward: Backward without wantInput — what
// Fit asks of the backbone — accumulates, bit for bit, the parameter
// gradients of Backward with it, across several batches into one
// accumulator, with closed ReLU units (exact +0 upstream gradients) and a
// negative zero among the gradients.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	build := func() *Sequential {
		r := xrand.New(7)
		return NewSequential(NewDense(6, 5, r), NewReLU(5), NewDense(5, 4, r), NewReLU(4))
	}
	full, lean := build(), build()
	r := xrand.New(11)
	negZero := math.Copysign(0, -1)
	closed := 0
	for batch := 0; batch < 10; batch++ {
		const n = 3
		x := make([]float64, n*6)
		for i := range x {
			x[i] = r.Norm()
		}
		var grad []float64
		for s := 0; s < n; s++ {
			grad = append(grad, r.Norm(), negZero, r.Norm(), 0)
		}
		out := full.Forward(x)
		lean.Forward(x)
		for _, v := range out {
			if v == 0 {
				closed++
			}
		}
		full.Backward(grad, true)
		if dx := lean.Backward(grad, false); dx != nil {
			t.Fatal("a Dense asked for no input gradient computed one")
		}
	}
	if closed == 0 {
		t.Fatal("no ReLU unit ever closed; the zero-gradient skip went untested")
	}
	fp, lp := full.Params(), lean.Params()
	for k := range fp {
		for j := range fp[k].G {
			if math.Float64bits(fp[k].G[j]) != math.Float64bits(lp[k].G[j]) {
				t.Fatalf("param %d gradient %d: wantInput %v, without %v", k, j, fp[k].G[j], lp[k].G[j])
			}
		}
	}
}
