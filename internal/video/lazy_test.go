package video

import (
	"slices"
	"sync"
	"testing"
)

// generated reports whether any part of the timeline exists.
func (s *Synthetic) generated() bool {
	return s.events != nil || s.chunks != nil || s.counts != nil || s.leadGap != nil || s.happy != nil
}

// TestDescribingGeneratesNoTimeline: what binding a query reads off a
// source — its name, length, rate, class and resolution — generates
// nothing and costs the same for any length; the first frame read
// generates everything.
func TestDescribingGeneratesNoTimeline(t *testing.T) {
	for _, spec := range Datasets() {
		s, err := spec.Build(0) // the default scale
		if err != nil {
			t.Fatal(err)
		}
		w, h := s.Resolution()
		if s.Name() != spec.Name || s.NumFrames() <= 0 || s.FPS() == 0 || s.TargetClass() == "" || w*h == 0 {
			t.Fatalf("%s: described as %d frames at %d fps of %q, %dx%d", s.Name(), s.NumFrames(), s.FPS(), s.TargetClass(), w, h)
		}
		if s.generated() {
			t.Fatalf("%s: describing the source generated its timeline", spec.Name)
		}
		s.TrueCountFast(0)
		if len(s.counts) != s.NumFrames() || len(s.chunks) == 0 ||
			(spec.Config.Kind == KindDashcam) != (s.leadGap != nil) || (spec.Config.Kind == KindStreet) != (s.happy != nil) {
			t.Fatalf("%s: the first frame read left the timeline incomplete", spec.Name)
		}
	}
	build := func(frames int) float64 {
		spec, _ := DatasetByName("Taipei-bus")
		return testing.AllocsPerRun(10, func() {
			if _, err := spec.Build(frames); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := build(1500), build(1500000); short != long {
		t.Fatalf("building 1,500 frames takes %.0f allocations and 1,500,000 frames %.0f", short, long)
	}
}

// TestFirstTouchConcurrent: whichever reader touches a fresh source
// first, and however many arrive together, every one sees the timeline
// the committed goldens were rendered from. Ten goroutines (two per
// reader) are released at once onto a fresh source, round after round,
// on a traffic, a street and a dashcam video.
func TestFirstTouchConcurrent(t *testing.T) {
	golden := readGoldenRender(t)
	for _, name := range []string{"Archie", "Daxi-old-street", "Dashcam-California"} {
		spec, err := DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		want := golden[name+"/64x64"]
		if len(want) != len(goldenRenderFrames) {
			t.Fatalf("%s: golden has %d hashes for %d pinned frames", name, len(want), len(goldenRenderFrames))
		}
		ref, err := spec.Build(3000)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 6; round++ {
			s, err := spec.Build(3000)
			if err != nil {
				t.Fatal(err)
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 10; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					i := goldenRenderFrames[(g+round)%len(goldenRenderFrames)]
					switch g % 5 { // the goroutine's first touch
					case 0:
						s.Render(i).Release()
					case 1:
						s.Scene(i)
					case 2:
						s.TrueCountFast(i)
					case 3:
						s.LeadGap(i)
					case 4:
						s.Happiness(i)
					}
					for k, i := range goldenRenderFrames {
						f := s.Render(i)
						hash := pixHash(f)
						f.Release()
						if hash != want[k] {
							t.Errorf("%s round %d goroutine %d: frame %d hashes to %s, golden %s", name, round, g, i, hash, want[k])
							return
						}
						sc, rsc := s.Scene(i), ref.Scene(i)
						if !slices.Equal(sc.Objects, rsc.Objects) || sc.LeadGap != rsc.LeadGap || sc.Happiness != rsc.Happiness ||
							s.TrueCountFast(i) != ref.TrueCountFast(i) || s.LeadGap(i) != ref.LeadGap(i) || s.Happiness(i) != ref.Happiness(i) {
							t.Errorf("%s round %d goroutine %d: frame %d differs from a source first touched serially", name, round, g, i)
							return
						}
					}
				}(g)
			}
			close(start)
			wg.Wait()
		}
		if spec.Config.Kind == KindDashcam && ref.LeadGap(0) == 0 || spec.Config.Kind == KindStreet && ref.Happiness(0) == 0 {
			t.Errorf("%s: the kind's own signal is missing", name)
		}
	}
}

// TestTimelineCheckAllocatesNothing: after the first touch the readers'
// pass through the Once is free — no closure per call. (Scene and
// Render pass through the same call; BenchmarkRender and the engine's
// ingest budget watch theirs.)
func TestTimelineCheckAllocatesNothing(t *testing.T) {
	spec, err := DatasetByName("Dashcam-California")
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Build(600)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0.0
	if allocs := testing.AllocsPerRun(100, func() {
		sink += float64(s.TrueCountFast(7)) + s.LeadGap(7) + s.Happiness(7)
	}); allocs != 0 {
		t.Fatalf("TrueCountFast + LeadGap + Happiness allocate %.0f times per call", allocs)
	}
	_ = sink
}
