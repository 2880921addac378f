package phase1

import (
	"math"
	"testing"
	"unsafe"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func testSource(t *testing.T, frames int) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "p1", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 6, MeanPopulation: 3, BurstRate: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testOpts() Options {
	return Options{
		SampleFrac: 0.05,
		Proxy:      cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 30}}, Epochs: 20},
		Cost:       simclock.Default(),
		Seed:       2,
	}
}

func TestRunProducesState(t *testing.T) {
	src := testSource(t, 6000)
	udf := vision.CountUDF{Class: video.ClassCar}
	clock := simclock.NewClock()
	st, err := Run(src, udf, testOpts(), clock)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.TrainSamples < 100 || st.Info.HoldoutSamples < 50 {
		t.Fatalf("sample sizes %d/%d", st.Info.TrainSamples, st.Info.HoldoutSamples)
	}
	if st.Info.Retained == 0 || st.Info.Retained > 6000 {
		t.Fatalf("retained %d", st.Info.Retained)
	}
	if len(st.Labeled) != st.Info.TrainSamples+st.Info.HoldoutSamples {
		t.Fatalf("labeled map size %d", len(st.Labeled))
	}
	// Labels are exact oracle scores.
	for f, s := range st.Labeled {
		if int(s) != src.TrueCountFast(f) {
			t.Fatalf("frame %d labelled %v, truth %d", f, s, src.TrueCountFast(f))
		}
	}
	// Labelling must be charged.
	if clock.PhaseMS(simclock.PhaseLabelSamples) <= 0 {
		t.Fatal("label phase not charged")
	}
	if clock.PhaseMS(simclock.PhaseTrainCMDN) <= 0 {
		t.Fatal("train phase not charged")
	}
}

func TestTinyVideoFallback(t *testing.T) {
	src := testSource(t, 300)
	udf := vision.CountUDF{Class: video.ClassCar}
	st, err := Run(src, udf, testOpts(), simclock.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	total := st.Info.TrainSamples + st.Info.HoldoutSamples
	if total > 150 {
		t.Fatalf("tiny video labelled %d of 300 frames", total)
	}
}

func TestTooShortVideoFails(t *testing.T) {
	src := testSource(t, 5)
	udf := vision.CountUDF{Class: video.ClassCar}
	if _, err := Run(src, udf, testOpts(), simclock.NewClock()); err == nil {
		t.Fatal("5-frame video should be rejected")
	}
}

func TestClampLevel(t *testing.T) {
	q := uncertain.QuantizeOptions{MinLevel: 0, MaxLevel: 10}
	if ClampLevel(-3, q) != 0 || ClampLevel(15, q) != 10 || ClampLevel(5, q) != 5 {
		t.Fatal("ClampLevel wrong")
	}
}

func TestDisableDiffRetainsAll(t *testing.T) {
	src := testSource(t, 1000)
	udf := vision.CountUDF{Class: video.ClassCar}
	opt := testOpts()
	opt.DisableDiff = true
	st, err := Run(src, udf, opt, simclock.NewClock())
	if err != nil {
		t.Fatal(err)
	}
	if st.Info.Retained != 1000 {
		t.Fatalf("retained %d, want all 1000", st.Info.Retained)
	}
}

// TestSamplesShareOneBlock: Samples writes every sample's features into
// one block — row k right after row k−1, each capped at its own end so
// no append runs into the next — and each row is bit-identical to
// cmdn.ExtractFeatures of the frame, at any worker count.
func TestSamplesShareOneBlock(t *testing.T) {
	src := testSource(t, 600)
	idx := []int{5, 93, 94, 310, 599, 0, 222}
	scores := []float64{1, 2, 3, 4, 5, 6, 7}
	w, h := src.Resolution()
	width := cmdn.FeatureSize(w, h)
	for _, procs := range []int{1, 3} {
		samples := Samples(src, cmdn.ArchPooled, idx, scores, procs, nil)
		for k, s := range samples {
			if s.Frame != idx[k] || s.Y != scores[k] {
				t.Fatalf("procs %d sample %d: frame %d score %v, want %d %v", procs, k, s.Frame, s.Y, idx[k], scores[k])
			}
			if len(s.X) != width || cap(s.X) != width {
				t.Fatalf("procs %d sample %d: row of length %d capacity %d, want %d", procs, k, len(s.X), cap(s.X), width)
			}
			if prev := samples[max(k-1, 0)].X; k > 0 && unsafe.Add(unsafe.Pointer(&prev[width-1]), 8) != unsafe.Pointer(&s.X[0]) {
				t.Fatalf("procs %d: row %d does not follow row %d in one block", procs, k, k-1)
			}
			f := src.Render(idx[k])
			want := cmdn.ExtractFeatures(f)
			f.Release()
			for j := range want {
				if math.Float64bits(s.X[j]) != math.Float64bits(want[j]) {
					t.Fatalf("procs %d frame %d feature %d: %v, ExtractFeatures %v", procs, idx[k], j, s.X[j], want[j])
				}
			}
		}
	}
}
