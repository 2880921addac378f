package nn

import (
	"math"
	"slices"
	"testing"

	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

func cloneTestModel(seed uint64) *Model { return NewModel(6, 8, 3, xrand.New(seed)) }

func cloneTestData(seed uint64, n int) ([][]float64, []float64) {
	r := xrand.New(seed)
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		x := make([]float64, 6)
		for j := range x {
			x[j] = r.Norm()
		}
		xs[i] = x
		ys[i] = x[0] + 0.5*x[1]
	}
	return xs, ys
}

// flatMix copies a model-owned mixture into caller-owned floats.
func flatMix(mix uncertain.Mixture) []float64 {
	out := make([]float64, 0, 3*len(mix))
	for _, c := range mix {
		out = append(out, c.Weight, c.Mean, c.Sigma)
	}
	return out
}

// TestClonePredictsIdentically: a fresh deep clone is bit-identical to
// its original on every input.
func TestClonePredictsIdentically(t *testing.T) {
	m := cloneTestModel(7)
	xs, ys := cloneTestData(11, 64)
	if _, err := m.Fit(xs, ys, TrainConfig{Epochs: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	for _, x := range xs[:8] {
		a := flatMix(m.Predict(x))
		b := flatMix(c.Predict(x))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("clone prediction differs at %d: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

// TestCloneTrainsIndependently: fine-tuning a deep clone never mutates
// the original's weights (unlike CloneForInference, which shares them).
func TestCloneTrainsIndependently(t *testing.T) {
	m := cloneTestModel(7)
	xs, ys := cloneTestData(11, 64)
	if _, err := m.Fit(xs, ys, TrainConfig{Epochs: 3, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	before := flatMix(m.Predict(xs[0]))

	c := m.Clone()
	xs2, ys2 := cloneTestData(13, 64)
	if _, err := c.Fit(xs2, ys2, TrainConfig{Epochs: 5, Seed: 9}); err != nil {
		t.Fatal(err)
	}

	after := flatMix(m.Predict(xs[0]))
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("fine-tuning the clone mutated the original (component %d: %v -> %v)", i, before[i], after[i])
		}
	}
	// And the clone did actually move.
	cl := flatMix(c.Predict(xs[0]))
	moved := false
	for i := range before {
		if math.Abs(before[i]-cl[i]) > 1e-12 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("clone's weights did not change under Fit")
	}
}

// TestParamsViewOneBlock: a model's four tensors are consecutive views of
// one weight block and one gradient block, so Fit's optimizer steps every
// parameter in one kernel call over m.all; Clone copies the weights into
// a block of its own, and CloneForInference shares them.
func TestParamsViewOneBlock(t *testing.T) {
	m := cloneTestModel(1)
	off := 0
	for i, p := range m.params() {
		if &p.W[0] != &m.all.W[off] || &p.G[0] != &m.all.G[off] {
			t.Fatalf("tensor %d is not the block's values from %d", i, off)
		}
		off += len(p.W)
	}
	if off != len(m.all.W) || m.NumParams() != off {
		t.Fatalf("tensors cover %d values, block %d, NumParams %d", off, len(m.all.W), m.NumParams())
	}
	c := m.Clone()
	if &c.all.W[0] == &m.all.W[0] || !slices.Equal(c.all.W, m.all.W) {
		t.Fatal("Clone must copy the weight block")
	}
	if &c.hidden.w.W[0] != &c.all.W[0] {
		t.Fatal("a clone's layers must view its own block")
	}
	if inf := m.CloneForInference(); &inf.hidden.w.W[0] != &m.all.W[0] || &inf.head.dense.b.W[0] != &m.head.dense.b.W[0] {
		t.Fatal("CloneForInference must share the weights")
	}
}
