package nn

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// gradCheck compares analytic parameter and input gradients of a scalar
// loss over a batch of n samples against central finite differences.
func gradCheck(t *testing.T, layer layerUnderTest, n int, seed uint64, tol float64) {
	t.Helper()
	r := xrand.New(seed)
	x := make([]float64, n*layer.in)
	for i := range x {
		x[i] = r.Norm()
	}
	// Loss: weighted sum of the batch's outputs with fixed random weights
	// (so the output gradient is nontrivial and differs per row).
	wOut := make([]float64, n*layer.out)
	for i := range wOut {
		wOut[i] = r.Norm()
	}
	loss := func() float64 {
		out := layer.forward(x)
		s := 0.0
		for i, v := range out {
			s += wOut[i] * v
		}
		return s
	}
	// Analytic gradients.
	loss()
	for _, p := range layer.params {
		clear(p.G)
	}
	dx := append([]float64(nil), layer.backward(wOut, true)...)

	const h = 1e-5
	for pi, p := range layer.params {
		for wi := 0; wi < len(p.W); wi += 1 + len(p.W)/25 { // sample entries
			orig := p.W[wi]
			p.W[wi] = orig + h
			up := loss()
			p.W[wi] = orig - h
			down := loss()
			p.W[wi] = orig
			want := (up - down) / (2 * h)
			if math.Abs(want-p.G[wi]) > tol*(1+math.Abs(want)) {
				t.Fatalf("n=%d param %d[%d]: analytic %v, numeric %v", n, pi, wi, p.G[wi], want)
			}
		}
	}
	// Input gradients.
	for i := 0; i < len(x); i += 1 + len(x)/25 {
		orig := x[i]
		x[i] = orig + h
		up := loss()
		x[i] = orig - h
		down := loss()
		x[i] = orig
		want := (up - down) / (2 * h)
		if math.Abs(want-dx[i]) > tol*(1+math.Abs(want)) {
			t.Fatalf("n=%d input[%d]: analytic %v, numeric %v", n, i, dx[i], want)
		}
	}
}

// gradBatches are the batch sizes every gradient check runs at: the
// single row Predict uses and a batch whose rows must not leak into each
// other.
var gradBatches = []int{1, 3}

func TestDenseGradients(t *testing.T) {
	for _, n := range gradBatches {
		gradCheck(t, denseUnderTest(NewDense(7, 5, xrand.New(1))), n, 2, 1e-6)
	}
}

// TestSequentialGradients checks a chain, Dense → ReLU → Dense, the way
// Fit chains the hidden layer into the head's dense layer.
func TestSequentialGradients(t *testing.T) {
	for _, n := range gradBatches {
		r := xrand.New(5)
		hidden := hiddenUnderTest(NewDense(6, 8, r))
		top := NewDense(8, 4, r)
		chain := layerUnderTest{
			forward: func(x []float64) []float64 { return top.Forward(hidden.forward(x)) },
			backward: func(grad []float64, wantInput bool) []float64 {
				return hidden.backward(top.Backward(grad, true), wantInput)
			},
			params: append(hidden.params, top.params()...),
			in:     6, out: 4,
		}
		gradCheck(t, chain, n, 6, 1e-6)
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	out := r.Forward([]float64{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("relu forward %v", out)
	}
	dx := r.Backward([]float64{1, 1, 1})
	if dx[0] != 0 || dx[1] != 0 || dx[2] != 1 {
		t.Fatalf("relu backward %v", dx)
	}
}

func TestMDNGradients(t *testing.T) {
	for _, n := range gradBatches {
		r := xrand.New(11)
		mdn := NewMDN(5, 3, r)
		x := make([]float64, n*5)
		for i := range x {
			x[i] = r.Norm()
		}
		ys := []float64{0.7, -0.4, 2.1}[:n]
		// Loss: the batch's summed NLL.
		loss := func() float64 {
			mdn.Forward(x)
			s := 0.0
			for row, y := range ys {
				s += mdn.rowNLL(row, y)
			}
			return s
		}
		loss()
		for _, p := range mdn.dense.params() {
			clear(p.G)
		}
		dx := append([]float64(nil), mdn.Backward(ys)...)
		const h = 1e-5
		for pi, p := range mdn.dense.params() {
			for wi := range p.W {
				orig := p.W[wi]
				p.W[wi] = orig + h
				up := loss()
				p.W[wi] = orig - h
				down := loss()
				p.W[wi] = orig
				want := (up - down) / (2 * h)
				if math.Abs(want-p.G[wi]) > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("n=%d mdn param %d[%d]: analytic %v numeric %v", n, pi, wi, p.G[wi], want)
				}
			}
		}
		for i := range x {
			orig := x[i]
			x[i] = orig + h
			up := loss()
			x[i] = orig - h
			down := loss()
			x[i] = orig
			want := (up - down) / (2 * h)
			if math.Abs(want-dx[i]) > 1e-5*(1+math.Abs(want)) {
				t.Fatalf("n=%d mdn input[%d]: analytic %v numeric %v", n, i, dx[i], want)
			}
		}
	}
}

func TestMDNMixtureValid(t *testing.T) {
	r := xrand.New(13)
	mdn := NewMDN(4, 5, r)
	x := []float64{0.1, -0.5, 2, 0.3}
	mix := mdn.Forward(x)
	if err := mix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFitLearnsConditionalMean(t *testing.T) {
	// y = 3*x0 + 1 + noise: after training, predicted mixture mean should
	// track the target.
	r := xrand.New(17)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		x := r.Float64() * 2
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+1+0.1*r.Norm())
	}
	model := NewModel(1, 16, 3, xrand.New(18))
	nll, err := model.Fit(xs, ys, TrainConfig{Epochs: 60, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	var errSum float64
	for _, xv := range []float64{0.2, 1.0, 1.8} {
		mix := model.Predict([]float64{xv})
		errSum += math.Abs(mix.Mean() - (3*xv + 1))
	}
	if errSum/3 > 0.4 {
		t.Fatalf("mean abs prediction error %v after training (nll %v)", errSum/3, nll)
	}
}

func TestFitLearnsBimodal(t *testing.T) {
	// Targets split into two modes depending on nothing: a single Gaussian
	// cannot model them; the mixture should place mass near both.
	r := xrand.New(23)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 400; i++ {
		xs = append(xs, []float64{1})
		mode := 2.0
		if r.Float64() < 0.5 {
			mode = 8
		}
		ys = append(ys, mode+0.2*r.Norm())
	}
	model := NewModel(1, 8, 4, xrand.New(24))
	if _, err := model.Fit(xs, ys, TrainConfig{Epochs: 120, Seed: 25}); err != nil {
		t.Fatal(err)
	}
	mix := model.Predict([]float64{1})
	var nearLow, nearHigh float64
	for _, c := range mix {
		if math.Abs(c.Mean-2) < 1 {
			nearLow += c.Weight
		}
		if math.Abs(c.Mean-8) < 1 {
			nearHigh += c.Weight
		}
	}
	if nearLow < 0.3 || nearHigh < 0.3 {
		t.Fatalf("bimodal not captured: low %.2f high %.2f (%v)", nearLow, nearHigh, mix)
	}
}

func TestFitReducesNLL(t *testing.T) {
	r := xrand.New(29)
	var xs [][]float64
	var ys []float64
	for i := 0; i < 200; i++ {
		x := r.Norm()
		xs = append(xs, []float64{x})
		ys = append(ys, x*x+0.1*r.Norm())
	}
	model := NewModel(1, 12, 3, xrand.New(30))
	before := model.MeanNLL(xs, ys)
	after, err := model.Fit(xs, ys, TrainConfig{Epochs: 40, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("training did not reduce NLL: %v -> %v", before, after)
	}
}

func TestFitValidation(t *testing.T) {
	model := NewModel(1, 4, 2, xrand.New(1))
	if _, err := model.Fit(nil, nil, TrainConfig{}); err == nil {
		t.Fatal("empty training set should fail")
	}
	if _, err := model.Fit([][]float64{{1}}, []float64{1, 2}, TrainConfig{}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestFitDeterministic(t *testing.T) {
	build := func() *Model { return NewModel(2, 4, 2, xrand.New(41)) }
	xs := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	ys := []float64{1, 2, 3}
	m1, m2 := build(), build()
	n1, _ := m1.Fit(xs, ys, TrainConfig{Epochs: 10, Seed: 42})
	n2, _ := m2.Fit(xs, ys, TrainConfig{Epochs: 10, Seed: 42})
	if n1 != n2 {
		t.Fatalf("training nondeterministic: %v vs %v", n1, n2)
	}
}
