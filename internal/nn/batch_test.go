package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

var negZero = math.Copysign(0, -1)

// sameBits fails the test at the first element of got whose bit pattern
// differs from want's.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameParams compares every weight and every gradient accumulator.
func sameParams(t *testing.T, what string, got, want []*Param) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tensors, reference has %d", what, len(got), len(want))
	}
	for k := range want {
		sameBits(t, fmt.Sprintf("%s tensor %d weights", what, k), got[k].W, want[k].W)
		sameBits(t, fmt.Sprintf("%s tensor %d gradients", what, k), got[k].G, want[k].G)
	}
}

// clone returns a deep copy: fresh tensors with the weights copied and
// the gradient accumulator cleared.
func (p *Param) clone() *Param {
	c := newParam(len(p.W))
	copy(c.W, p.W)
	return c
}

// params lists the layer's weights and biases.
func (d *Dense) params() []*Param { return []*Param{d.w, d.b} }

// params lists the model's parameters, hidden layer first: views of
// m.all, in its order.
func (m *Model) params() []*Param {
	return append(m.hidden.params(), m.head.dense.params()...)
}

// pooledModel is the CMDN's shape, Dense → ReLU → MDN, drawn from a seed.
func pooledModel(in, h, g int, seed uint64) *Model { return NewModel(in, h, g, xrand.New(seed)) }

// trainingSet draws n inputs of the given size with the awkward values
// mixed in: negative zeros inside ordinary rows, and whole rows of +0 and
// of −0 (which close every ReLU of a freshly initialized hidden layer,
// whose biases are 0).
func trainingSet(n, in int, seed uint64) ([][]float64, []float64) {
	r := xrand.New(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, in)
		switch {
		case i%11 == 3:
			// all +0
		case i%11 == 7:
			for j := range x {
				x[j] = negZero
			}
		default:
			for j := range x {
				x[j] = r.Norm()
				if r.Float64() < 0.05 {
					x[j] = negZero
				}
			}
		}
		xs[i] = x
		ys[i] = x[0] - 0.5*x[in-1] + 0.3*r.Norm()
	}
	return xs, ys
}

// deadBackbone pushes every hidden pre-activation far below zero: no ReLU
// opens, and every upstream gradient of the hidden layer is exactly 0.
func deadBackbone(m *Model) {
	for o := range m.hidden.b.W {
		m.hidden.b.W[o] = -1e6
	}
}

// clampedSigma puts log σ far below minLogSigma for two of every three
// components (all of them when g = 1).
func clampedSigma(m *Model) {
	g := m.head.g
	for j := 0; j < g; j++ {
		if j%3 != 1 {
			m.head.dense.b.W[2*g+j] = -100
		}
	}
}

// TestFitMatchesReference is the trainer's contract: moving a minibatch
// through the layers leaves, bit for bit, the weights, the returned NLL
// and the predictions of the per-sample loop in reference_test.go — over
// hidden widths below, at and past a multiple of the four-wide kernels
// (3, 13, 20, 30), mixture sizes whose 3g crosses every remainder of them, batch sizes with a ragged last batch, a training set
// smaller than one batch, a hidden layer whose ReLUs never open and a head
// whose σ sits on its floor.
func TestFitMatchesReference(t *testing.T) {
	type fitCase struct {
		name   string
		model  func(g int) *Model
		n, in  int
		epochs int
		adjust func(*Model) // nil, or a weight edit applied before training
	}
	cases := []fitCase{
		{name: "pooled", model: func(g int) *Model { return pooledModel(97, 20, g, 5) }, n: 600, in: 97, epochs: 3},
		{name: "pooled-h30", model: func(g int) *Model { return pooledModel(33, 30, g, 6) }, n: 70, in: 33, epochs: 4},
		{name: "narrow-hidden", model: func(g int) *Model { return pooledModel(9, 3, g, 8) }, n: 50, in: 9, epochs: 4},
		{name: "wide-input", model: func(g int) *Model { return pooledModel(64, 13, g, 7) }, n: 40, in: 64, epochs: 2},
		{name: "smaller-than-a-batch", model: func(g int) *Model { return pooledModel(12, 10, g, 9) }, n: 5, in: 12, epochs: 6},
		{name: "dead-backbone", model: func(g int) *Model { return pooledModel(12, 10, g, 10) }, n: 40, in: 12, epochs: 3, adjust: deadBackbone},
		{name: "clamped-sigma", model: func(g int) *Model { return pooledModel(12, 10, g, 11) }, n: 40, in: 12, epochs: 3, adjust: clampedSigma},
	}
	for _, c := range cases {
		for _, g := range []int{1, 5, 12} {
			for _, batch := range []int{1, 4, 16} {
				if c.n >= 600 && (batch == 1) != (g == 5) {
					continue // the big case: batch 1 once, the others at two g each
				}
				t.Run(fmt.Sprintf("%s/g=%d/batch=%d", c.name, g, batch), func(t *testing.T) {
					xs, ys := trainingSet(c.n, c.in, 21)
					m := c.model(g)
					if c.adjust != nil {
						c.adjust(m)
					}
					ref := newRef(m)
					cfg := TrainConfig{Epochs: c.epochs, BatchSize: batch, Seed: 31, LearningRate: 1e-2}

					wantNLL := ref.fit(xs, ys, cfg)
					gotNLL, err := m.Fit(xs, ys, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameBits(t, "returned NLL", []float64{gotNLL}, []float64{wantNLL})
					sameParams(t, "after Fit", m.params(), ref.params())
					for _, i := range []int{0, 3, c.n / 2, c.n - 1} {
						sameBits(t, fmt.Sprintf("prediction %d", i), flatMix(m.Predict(xs[i])), ref.predict(xs[i]))
					}
				})
			}
		}
	}
}

// TestFitCasesReachTheirEdges: the awkward cases above are awkward — an
// all-zero row closes every ReLU of a fresh hidden layer, the dead one has
// no open unit on any row, and the clamped head's σ sits on its floor.
func TestFitCasesReachTheirEdges(t *testing.T) {
	xs, _ := trainingSet(40, 12, 21)
	m := pooledModel(12, 10, 5, 10)
	hidden := func(x []float64) []float64 { return m.relu.Forward(m.hidden.Forward(x)) }
	for _, v := range hidden(xs[3]) { // row 3 is all +0
		if v != 0 {
			t.Fatalf("an all-zero row opened a ReLU of a fresh hidden layer: %v", v)
		}
	}
	deadBackbone(m)
	for i, x := range xs {
		for _, v := range hidden(x) {
			if v != 0 {
				t.Fatalf("row %d opened a ReLU of the dead hidden layer: %v", i, v)
			}
		}
	}
	clampedSigma(m)
	if mix := m.Predict(xs[0]); mix[0].Sigma != math.Exp(minLogSigma) {
		t.Fatalf("σ %v is not on its floor %v", mix[0].Sigma, math.Exp(minLogSigma))
	}
}

// layerUnderTest is a dense layer, or the hidden layer with its ReLU, as
// a batch-shaped transform the batch and gradient tests can drive alike.
type layerUnderTest struct {
	forward  func(x []float64) []float64
	backward func(grad []float64, wantInput bool) []float64
	params   []*Param
	in, out  int
}

func denseUnderTest(d *Dense) layerUnderTest {
	return layerUnderTest{forward: d.Forward, backward: d.Backward, params: d.params(), in: d.in, out: d.out}
}

// hiddenUnderTest is Dense → ReLU, the model's hidden layer.
func hiddenUnderTest(d *Dense) layerUnderTest {
	r := &ReLU{}
	return layerUnderTest{
		forward: func(x []float64) []float64 { return r.Forward(d.Forward(x)) },
		backward: func(grad []float64, wantInput bool) []float64 {
			return d.Backward(r.Backward(grad), wantInput)
		},
		params: d.params(), in: d.in, out: d.out,
	}
}

// reluUnderTest is a ReLU of the given width on its own; it has no
// parameters.
func reluUnderTest(width int) layerUnderTest {
	r := &ReLU{}
	return layerUnderTest{
		forward:  r.Forward,
		backward: func(grad []float64, _ bool) []float64 { return r.Backward(grad) },
		in:       width, out: width,
	}
}

// TestBatchMatchesPerSampleCalls: Forward and Backward over a batch of n
// leave the activations, input gradients and accumulated parameter
// gradients of n one-row calls made in order — for a dense layer alone
// (the smallest shape, and the MDN head's), a ReLU alone, and the hidden
// layer with its ReLU (at the CMDN's 97 → 20 too), with and without the
// input gradient.
func TestBatchMatchesPerSampleCalls(t *testing.T) {
	type layerCase struct {
		name  string
		build func() layerUnderTest
	}
	cases := []layerCase{
		{"dense-7x5", func() layerUnderTest { return denseUnderTest(NewDense(7, 5, xrand.New(1))) }},
		{"dense-3x9", func() layerUnderTest { return denseUnderTest(NewDense(3, 9, xrand.New(2))) }},
		{"dense-1x1", func() layerUnderTest { return denseUnderTest(NewDense(1, 1, xrand.New(3))) }},
		{"relu", func() layerUnderTest { return reluUnderTest(12) }},
		{"pooled-stack", func() layerUnderTest { return hiddenUnderTest(pooledModel(11, 6, 2, 4).hidden) }},
		{"pooled-stack-97x20", func() layerUnderTest { return hiddenUnderTest(pooledModel(97, 20, 5, 6).hidden) }},
		{"head-dense", func() layerUnderTest { return denseUnderTest(pooledModel(11, 6, 5, 4).head.dense) }},
	}
	for _, c := range cases {
		for _, n := range []int{1, 3, 4, 9} {
			for _, wantInput := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/n=%d/wantInput=%v", c.name, n, wantInput), func(t *testing.T) {
					whole, single := c.build(), c.build()
					in, out := whole.in, whole.out
					r := xrand.New(uint64(17 + n))
					x := make([]float64, n*in)
					for i := range x {
						x[i] = r.Norm()
					}
					x[0], x[len(x)-1] = negZero, 0
					grad := make([]float64, n*out)
					for i := range grad {
						grad[i] = r.Norm()
						if i%5 == 2 {
							grad[i] = 0
						}
					}
					// Two rounds, so the second accumulates onto nonzero gradients.
					for round := 0; round < 2; round++ {
						got := whole.forward(x)
						dx := whole.backward(grad, wantInput)
						var wantOut, wantDx []float64
						for s := 0; s < n; s++ {
							wantOut = append(wantOut, single.forward(x[s*in:(s+1)*in])...)
							wantDx = append(wantDx, single.backward(grad[s*out:(s+1)*out], wantInput)...)
						}
						sameBits(t, "activations", got, wantOut)
						if wantInput {
							sameBits(t, "input gradient", dx, wantDx)
						}
						sameParams(t, "accumulated", whole.params, single.params)
					}
				})
			}
		}
	}
}

// TestKernelsMatchReference pins each rewritten kernel on its own to the
// per-sample code it replaced: the dense forward and backward at shapes
// that leave every remainder of the four-wide loops, the MDN head's
// forward / NLL / backward, and the Adam step.
func TestKernelsMatchReference(t *testing.T) {
	r := xrand.New(41)
	for _, shape := range [][2]int{{1, 1}, {5, 3}, {8, 4}, {13, 7}, {97, 40}, {40, 36}, {6, 45}} {
		in, out := shape[0], shape[1]
		d := NewDense(in, out, r)
		for o := range d.b.W {
			d.b.W[o] = r.Norm()
		}
		ref := refDenseOf(d)
		const n = 6
		x := make([]float64, n*in)
		grad := make([]float64, n*out)
		for i := range x {
			x[i] = r.Norm()
		}
		for i := range grad {
			grad[i] = r.Norm()
		}
		grad[0], grad[len(grad)-1] = negZero, 0
		y := d.Forward(x)
		dx := d.Backward(grad, true)
		for s := 0; s < n; s++ {
			what := fmt.Sprintf("dense %dx%d row %d", in, out, s)
			sameBits(t, what+" forward", y[s*out:(s+1)*out], ref.forward(x[s*in:(s+1)*in]))
			sameBits(t, what+" input gradient", dx[s*in:(s+1)*in], ref.backward(grad[s*out:(s+1)*out]))
		}
		sameParams(t, fmt.Sprintf("dense %dx%d", in, out), d.params(), ref.params())
	}

	for _, g := range []int{1, 5, 12} {
		const in, n = 7, 5
		m := NewMDN(in, g, r)
		m.dense.b.W[2*g] = -100 // component 0 clamped
		ref := &refMDN{g: g, dense: refDenseOf(m.dense)}
		feat := make([]float64, n*in)
		for i := range feat {
			feat[i] = r.Norm()
		}
		ys := []float64{0.3, -1.2, 4, 0, negZero}
		m.Forward(feat)
		var nlls, wantNLLs []float64
		for s, y := range ys {
			nlls = append(nlls, m.rowNLL(s, y))
		}
		dFeat := m.Backward(ys)
		for s, y := range ys {
			ref.forward(feat[s*in : (s+1)*in])
			wantNLLs = append(wantNLLs, ref.nll(y))
			sameBits(t, fmt.Sprintf("mdn g=%d row %d feature gradient", g, s), dFeat[s*in:(s+1)*in], ref.backward(y))
		}
		sameBits(t, fmt.Sprintf("mdn g=%d NLL", g), nlls, wantNLLs)
		sameParams(t, fmt.Sprintf("mdn g=%d", g), m.dense.params(), ref.dense.params())
	}

	p := newParam(23)
	for i := range p.W {
		p.W[i] = r.Norm()
	}
	q := p.clone()
	opt, refOpt := NewAdam([]*Param{p}, 3e-3), newRefAdam([]*Param{q}, 3e-3)
	for step := 0; step < 5; step++ {
		for i := range p.G {
			p.G[i] = r.Norm() * float64(i%3) // every third gradient exactly 0
			q.G[i] = p.G[i]
		}
		opt.Step()
		refOpt.step()
		sameParams(t, fmt.Sprintf("adam step %d", step), []*Param{p}, []*Param{q})
	}
}

// TestFitRejectsRaggedInputs: rows are gathered into one block, so a row
// of another length is an error, not a silent misread.
func TestFitRejectsRaggedInputs(t *testing.T) {
	m := pooledModel(3, 4, 2, 1)
	if _, err := m.Fit([][]float64{{1, 2, 3}, {1, 2}}, []float64{0, 1}, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("a short input row should fail")
	}
}

// TestFitRejectsAnotherWidth: rows that agree with each other but not with
// the model's input width are an error too — gathered into a block, a
// batch of them would read as some other number of rows, or panic.
func TestFitRejectsAnotherWidth(t *testing.T) {
	m := pooledModel(3, 4, 2, 1)
	xs := [][]float64{{1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6}}
	_, err := m.Fit(xs, []float64{0, 1}, TrainConfig{Epochs: 1})
	if err == nil || !strings.Contains(err.Error(), "input 0 has 6 values, the model takes 3") {
		t.Fatalf("rows twice the model's width: error %v", err)
	}
}

// TestFitAllocationBudget: what Fit allocates is per Fit — the
// permutation, the batch block, the Adam moments, the layers' scratch —
// and does not grow with the number of epochs.
func TestFitAllocationBudget(t *testing.T) {
	xs, ys := trainingSet(100, 12, 3)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(5, func() {
			m := pooledModel(12, 10, 5, 2)
			if _, err := m.Fit(xs, ys, TrainConfig{Epochs: epochs, Seed: 1}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(9); many != one {
		t.Fatalf("Fit allocates %v objects over 1 epoch but %v over 9", one, many)
	}
}

// BenchmarkFit is one grid point of the harness shape: 600 samples of 97
// features, 40 hidden units, 12 components, at 5 epochs (190 Adam steps)
// and at 35 (1,330 steps, 975 of them past step 356, from which Adam's
// first bias correction is exactly 1).
func BenchmarkFit(b *testing.B) {
	xs, ys := trainingSet(600, 97, 1)
	for _, epochs := range []int{5, 35} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := pooledModel(97, 40, 12, 2)
				if _, err := m.Fit(xs, ys, TrainConfig{Epochs: epochs, Seed: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestAdamMatchesReferencePastBiasCorrection: Adam's updates equal the
// reference's, which divides by the first bias correction on every step,
// before and after that correction rounds to exactly 1 (step 356).
func TestAdamMatchesReferencePastBiasCorrection(t *testing.T) {
	for step := 355; step <= 356; step++ {
		if c1 := 1 - math.Pow(0.9, float64(step)); (c1 == 1) != (step == 356) {
			t.Fatalf("step %d: c1 = %v", step, c1)
		}
	}
	r := xrand.New(41)
	params := func() []*Param {
		ps := []*Param{newParam(7), newParam(13)}
		for _, p := range ps {
			for j := range p.W {
				p.W[j] = r.Norm()
			}
		}
		return ps
	}
	got := params()
	want := make([]*Param, len(got))
	for i, p := range got {
		want[i] = &Param{W: append([]float64(nil), p.W...), G: make([]float64, len(p.G))}
	}
	opt, ref := NewAdam(got, 1e-2), newRefAdam(want, 1e-2)
	for step := 1; step <= 500; step++ {
		for i, p := range got {
			for j := range p.G {
				g := r.Norm()
				p.G[j], want[i].G[j] = g, g
			}
		}
		opt.Step()
		ref.step()
		sameParams(t, fmt.Sprintf("after step %d", step), got, want)
	}
}
