package windows

import (
	"errors"
	"math"
	"testing"

	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/uncertain"
)

// flatDiff builds a diff result where every frame represents itself.
func flatDiff(n int) diffdet.Result {
	rep := make([]int32, n)
	for i := range rep {
		rep[i] = int32(i)
	}
	return diffdet.Result{RepOf: rep}
}

// mixScore is the FrameScore of a frame the proxy scores with m.
func mixScore(m uncertain.Mixture) FrameScore {
	return FrameScore{Mean: m.Mean(), Variance: m.Variance()}
}

// segDiff builds a diff result with fixed-size segments.
func segDiff(n, seg int) diffdet.Result {
	rep := make([]int32, n)
	for i := range rep {
		rep[i] = int32((i / seg) * seg)
	}
	return diffdet.Result{RepOf: rep}
}

func TestBuildRelationValidation(t *testing.T) {
	score := func(int) FrameScore { return FrameScore{IsExact: true, Mean: 1} }
	if _, err := BuildRelation(score, flatDiff(10), Options{Size: 0, Step: 1}); err == nil {
		t.Fatal("zero size should fail")
	}
	if _, err := BuildRelation(score, flatDiff(10), Options{Size: 5, Step: 1}); err == nil {
		t.Fatal("zero stride should fail")
	}
	if _, err := BuildRelation(score, flatDiff(10), Options{Size: 5, Stride: 5, Step: 0}); err == nil {
		t.Fatal("zero step should fail")
	}
	if _, err := BuildRelation(score, flatDiff(3), Options{Size: 5, Stride: 5, Step: 1}); err == nil {
		t.Fatal("no complete window should fail")
	}
}

func TestAllExactWindowsAreCertain(t *testing.T) {
	score := func(rep int) FrameScore { return FrameScore{IsExact: true, Mean: float64(rep % 7)} }
	rel, err := BuildRelation(score, flatDiff(20), Options{Size: 5, Stride: 5, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 4 {
		t.Fatalf("%d windows, want 4", len(rel))
	}
	for _, x := range rel {
		if !x.Dist.IsCertain() {
			t.Fatalf("window %d not certain", x.ID)
		}
	}
	// Window 0 covers frames 0..4 with scores 0,1,2,3,4 → mean 2.
	if rel[0].Dist.Min != 2 {
		t.Fatalf("window 0 level %d, want 2", rel[0].Dist.Min)
	}
}

func TestEq9MeanAndVariance(t *testing.T) {
	// One window of 10 frames, two segments of 5, reps 0 and 5.
	mixA := uncertain.Mixture{{Weight: 1, Mean: 4, Sigma: 1}}
	mixB := uncertain.Mixture{{Weight: 1, Mean: 8, Sigma: 2}}
	score := func(rep int) FrameScore {
		if rep == 0 {
			return mixScore(mixA)
		}
		return mixScore(mixB)
	}
	rel, err := BuildRelation(score, segDiff(10, 5), Options{Size: 10, Stride: 10, Step: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	d := rel[0].Dist
	// Eq. 9: mean = (5·4 + 5·8)/10 = 6; var = (5·1 + 5·4)/10 = 2.5.
	gotMean := d.Mean() * 0.25
	if math.Abs(gotMean-6) > 0.15 {
		t.Fatalf("window mean %v, want ~6", gotMean)
	}
	gotVar := d.Variance() * 0.25 * 0.25
	if math.Abs(gotVar-2.5) > 0.5 {
		t.Fatalf("window variance %v, want ~2.5", gotVar)
	}
}

func TestMixedExactAndUncertainSegments(t *testing.T) {
	mix := uncertain.Mixture{{Weight: 1, Mean: 10, Sigma: 1}}
	score := func(rep int) FrameScore {
		if rep == 0 {
			return FrameScore{IsExact: true, Mean: 2}
		}
		return mixScore(mix)
	}
	rel, err := BuildRelation(score, segDiff(10, 5), Options{Size: 10, Stride: 10, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	d := rel[0].Dist
	if d.IsCertain() {
		t.Fatal("mixed window should stay uncertain")
	}
	// mean = (5·2 + 5·10)/10 = 6; var = (5·0 + 5·1)/10 = 0.5.
	if math.Abs(d.Mean()*0.5-6) > 0.2 {
		t.Fatalf("mixed mean %v, want ~6", d.Mean()*0.5)
	}
}

func TestWindowLevelsClamped(t *testing.T) {
	mix := uncertain.Mixture{{Weight: 1, Mean: 95, Sigma: 10}}
	score := func(int) FrameScore { return mixScore(mix) }
	rel, err := BuildRelation(score, flatDiff(10), Options{Size: 5, Stride: 5, Step: 1, MaxLevel: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range rel {
		if x.Dist.Max() > 100 || x.Dist.Min < 0 {
			t.Fatalf("window support [%d,%d] outside clamp", x.Dist.Min, x.Dist.Max())
		}
	}
}

func TestOracleSampleMean(t *testing.T) {
	// Frame score = frame index; window 2 of size 10 covers frames 20..29
	// whose mean is 24.5. The sampled mean should land near that.
	o := &Oracle{
		ScoreFrames: func(ids []int) ([]float64, error) {
			out := make([]float64, len(ids))
			for i, id := range ids {
				out[i] = float64(id)
			}
			return out, nil
		},
		Size: 10, Stride: 10, SampleFrac: 0.5, Step: 0.5, Seed: 1,
	}
	levels, err := o.CleanBatch([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(levels[0]) * 0.5
	if got < 20 || got > 29 {
		t.Fatalf("sampled window mean %v outside window range", got)
	}
}

func TestOracleFullSampling(t *testing.T) {
	// SampleFrac 1.0 must reproduce the exact window mean.
	o := &Oracle{
		ScoreFrames: func(ids []int) ([]float64, error) {
			out := make([]float64, len(ids))
			for i, id := range ids {
				out[i] = float64(id % 10)
			}
			return out, nil
		},
		Size: 10, Stride: 10, SampleFrac: 1.0, Step: 0.1, Seed: 2,
	}
	levels, err := o.CleanBatch([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Mean of 0..9 = 4.5 → level 45 at step 0.1.
	for _, lvl := range levels {
		if lvl != 45 {
			t.Fatalf("full-sample level %d, want 45", lvl)
		}
	}
}

func TestOracleSamplesPerWindow(t *testing.T) {
	o := &Oracle{Size: 30}
	if o.SamplesPerWindow() != 3 {
		t.Fatalf("default 10%% of 30 = %d, want 3", o.SamplesPerWindow())
	}
	o = &Oracle{Size: 5, SampleFrac: 0.01}
	if o.SamplesPerWindow() != 1 {
		t.Fatal("minimum one sample per window")
	}
	o = &Oracle{Size: 5, SampleFrac: 5}
	if o.SamplesPerWindow() != 5 {
		t.Fatal("samples capped at window size")
	}
}

func TestOracleDeterministic(t *testing.T) {
	mk := func() *Oracle {
		return &Oracle{
			ScoreFrames: func(ids []int) ([]float64, error) {
				out := make([]float64, len(ids))
				for i, id := range ids {
					out[i] = float64(id * id % 17)
				}
				return out, nil
			},
			Size: 20, Stride: 20, Step: 1, Seed: 7,
		}
	}
	a, err := mk().CleanBatch([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().CleanBatch([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("window oracle nondeterministic")
		}
	}
}

func TestOracleErrorPropagates(t *testing.T) {
	boom := errors.New("decode failed")
	o := &Oracle{
		ScoreFrames: func([]int) ([]float64, error) { return nil, boom },
		Size:        10, Stride: 10, Step: 1,
	}
	if _, err := o.CleanBatch([]int{0}); !errors.Is(err, boom) {
		t.Fatalf("error = %v, want propagated", err)
	}
	o.Stride = 0
	if _, err := o.CleanBatch([]int{0}); err == nil || errors.Is(err, boom) {
		t.Fatalf("zero stride: error = %v, want it rejected before any frame is scored", err)
	}
}
