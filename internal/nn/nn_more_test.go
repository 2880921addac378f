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

func TestDenseInputSizePanic(t *testing.T) {
	d := NewDense(3, 2, xrand.New(1))
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size should panic")
		}
	}()
	d.Forward([]float64{1, 2})
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

func TestTrainConfigDefaults(t *testing.T) {
	c := TrainConfig{}.withDefaults()
	if c.Epochs == 0 || c.LearningRate == 0 || c.BatchSize == 0 {
		t.Fatalf("defaults not applied: %+v", c)
	}
}

// TestBackwardParamsMatchesBackward: Backward without wantInput — what
// Fit asks of the hidden layer — accumulates, bit for bit, the parameter
// gradients of Backward with it, across several batches into one
// accumulator, with closed ReLU units (exact +0 upstream gradients) and a
// negative zero among the gradients.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	// Two hidden layers stacked, so the lower one sees the closed units of
	// the upper one's ReLU as exact +0 gradients.
	build := func() layerUnderTest {
		r := xrand.New(7)
		lower, upper := hiddenUnderTest(NewDense(6, 5, r)), hiddenUnderTest(NewDense(5, 4, r))
		return layerUnderTest{
			forward: func(x []float64) []float64 { return upper.forward(lower.forward(x)) },
			backward: func(grad []float64, wantInput bool) []float64 {
				return lower.backward(upper.backward(grad, true), wantInput)
			},
			params: append(lower.params, upper.params...),
			in:     6, out: 4,
		}
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
		out := full.forward(x)
		lean.forward(x)
		for _, v := range out {
			if v == 0 {
				closed++
			}
		}
		full.backward(grad, true)
		if dx := lean.backward(grad, false); dx != nil {
			t.Fatal("a Dense asked for no input gradient computed one")
		}
	}
	if closed == 0 {
		t.Fatal("no ReLU unit ever closed; the zero-gradient skip went untested")
	}
	fp, lp := full.params, lean.params
	for k := range fp {
		for j := range fp[k].G {
			if math.Float64bits(fp[k].G[j]) != math.Float64bits(lp[k].G[j]) {
				t.Fatalf("param %d gradient %d: wantInput %v, without %v", k, j, fp[k].G[j], lp[k].G[j])
			}
		}
	}
}
