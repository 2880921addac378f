package engine

import (
	"bytes"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
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

// TestIngestAllocationBudget: a default ingest of 4,000 frames on two
// workers allocates what it keeps — the sample block, the models, the
// artifact — not a pixel buffer per decode (4,700 unrecycled 64×64
// frames alone are 154 MB), nor a mixture sized for components it
// prunes or a table it copies and drops. 3.55–3.58 MB here; the budget
// is that plus 25 %. The worker count is fixed because every worker
// owns model clones and scratch: the same ingest at 32 workers
// allocates about 1.5 MB more.
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
	if _, err := Ingest(&countedSource{Source: src}, vision.CountUDF{Class: video.ClassCar}, phase1.Options{Seed: 1, Procs: 2}, simclock.NewClock()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 4.5 {
		t.Fatalf("a 4,000-frame ingest allocated %.3f MB, budget 4.5 MB", mb)
	} else {
		t.Logf("allocated %.3f MB", mb)
	}
}

// stageSource takes a goroutine profile at every 64th Render and notes
// the profiler stage labels it shows: what a profile taken during an
// ingest attributes the decoding goroutines' work to.
type stageSource struct {
	video.Source
	renders atomic.Int64
	mu      sync.Mutex
	stages  map[string]bool
}

var stageLabel = regexp.MustCompile(`"stage":"([a-z-]+)"`)

func (s *stageSource) Render(i int) video.Frame {
	if s.renders.Add(1)%64 == 1 {
		var buf bytes.Buffer
		if err := pprof.Lookup("goroutine").WriteTo(&buf, 1); err == nil {
			s.mu.Lock()
			for _, m := range stageLabel.FindAllStringSubmatch(buf.String(), -1) {
				s.stages[m[1]] = true
			}
			s.mu.Unlock()
		}
	}
	return s.Source.Render(i)
}

// TestIngestProfileLabels: Phase 1's stages carry profiler labels that
// the workers they fan out to inherit, so a goroutine profile taken
// while a frame is decoded names the featurization of the labelled
// samples and the detector's pass.
func TestIngestProfileLabels(t *testing.T) {
	_, src, udf := fixture(t)
	opt := testPlan(5).Ingest
	opt.Procs = 2
	labelled := &stageSource{Source: src, stages: map[string]bool{}}
	if _, err := Ingest(labelled, udf, opt, simclock.NewClock()); err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"featurize", "detector-pass"} {
		if !labelled.stages[stage] {
			t.Errorf("no goroutine profile during ingest showed stage %q; saw %v", stage, labelled.stages)
		}
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
