package nn

import (
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/xrand"
)

// buildPredictModel is a CMDN of the shape Predict runs millions of times
// in Phase 1.
func buildPredictModel() *Model { return NewModel(32, 24, 8, xrand.New(99)) }

func TestPredictAllocationFree(t *testing.T) {
	m := buildPredictModel()
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	m.Predict(x) // warm up scratch
	if allocs := testing.AllocsPerRun(100, func() { m.Predict(x) }); allocs != 0 {
		t.Fatalf("Model.Predict allocates %v objects per call, want 0", allocs)
	}
}

func TestTrainStepAllocationFree(t *testing.T) {
	m := buildPredictModel()
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	ys := []float64{0.5}
	step := func() {
		m.forward(x)
		m.hidden.Backward(m.relu.Backward(m.head.Backward(ys)), true)
	}
	step() // warm up scratch
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("forward/backward allocates %v objects per call, want 0", allocs)
	}
}

func TestCloneForInferenceMatchesOriginal(t *testing.T) {
	m := buildPredictModel()
	clone := m.CloneForInference()
	x := []float64{0.3}
	xs := make([]float64, 32)
	for i := range xs {
		xs[i] = x[0] * float64(i)
	}
	want := m.Predict(xs)
	got := clone.Predict(xs)
	if len(want) != len(got) {
		t.Fatalf("clone mixture size %d vs %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("component %d: clone %+v vs original %+v", i, got[i], want[i])
		}
	}
}

func TestCloneForInferenceConcurrent(t *testing.T) {
	m := buildPredictModel()
	const workers = 8
	const perWorker = 200
	inputs := make([][]float64, perWorker)
	r := xrand.New(3)
	for i := range inputs {
		inputs[i] = make([]float64, 32)
		for j := range inputs[i] {
			inputs[i][j] = r.Norm()
		}
	}
	// Serial reference means.
	want := make([]float64, perWorker)
	for i, x := range inputs {
		want[i] = m.Predict(x).Mean()
	}
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		clone := m.CloneForInference()
		wg.Add(1)
		go func(w int, c *Model) {
			defer wg.Done()
			for i, x := range inputs {
				if got := c.Predict(x).Mean(); got != want[i] {
					errs[w] = "clone diverged from serial prediction"
					return
				}
			}
		}(w, clone)
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Fatal(e)
		}
	}
}
