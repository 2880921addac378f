package phase1

import (
	"testing"

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
