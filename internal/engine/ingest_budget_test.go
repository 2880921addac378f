package engine

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// countedSource counts Render calls from behind the video.Source
// interface. It is opaque the way a tracing wrapper is: whatever the
// engine does with a frame has to work through the interface alone.
type countedSource struct {
	video.Source
	renders atomic.Int64
}

func (s *countedSource) Render(i int) video.Frame {
	s.renders.Add(1)
	return s.Source.Render(i)
}

// TestIngestRenderBudget: ingest decodes what the simulated clock bills
// — every frame once in the difference detector's pass, which proxy
// inference rides, plus one decode per labelled sample for its features
// — at every worker count. Without the detector the inference sweep is
// the one pass and skips the labelled frames, so the total is exactly
// the frame count.
func TestIngestRenderBudget(t *testing.T) {
	_, src, udf := fixture(t)
	for _, disableDiff := range []bool{false, true} {
		for _, procs := range []int{1, 2, 8} {
			opt := testPlan(5).Ingest
			opt.Procs = procs
			opt.DisableDiff = disableDiff
			counted := &countedSource{Source: src}
			art, err := Ingest(counted, udf, opt, simclock.NewClock())
			if err != nil {
				t.Fatal(err)
			}
			want := src.NumFrames()
			if !disableDiff {
				want += art.Info.TrainSamples + art.Info.HoldoutSamples
			}
			if got := int(counted.renders.Load()); got != want {
				t.Errorf("DisableDiff=%v Procs=%d: %d renders, want %d (%d frames, %d+%d labelled samples)",
					disableDiff, procs, got, want, src.NumFrames(), art.Info.TrainSamples, art.Info.HoldoutSamples)
			}
		}
	}
}

// TestIngestAllocationBudget: a default ingest of 4,000 frames
// allocates a few megabytes (samples, models, the artifact), not a
// pixel buffer per decode — 4,700 unrecycled 64×64 frames alone are
// 154 MB. A Render whose frame is never released shows up here.
func TestIngestAllocationBudget(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(4000)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Ingest(&countedSource{Source: src}, vision.CountUDF{Class: video.ClassCar}, phase1.Options{Seed: 1}, simclock.NewClock()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 16 {
		t.Fatalf("a 4,000-frame ingest allocated %.1f MB, budget 16 MB", mb)
	} else {
		t.Logf("allocated %.1f MB", mb)
	}
}

func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
