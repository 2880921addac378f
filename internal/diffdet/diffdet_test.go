package diffdet

import (
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
)

func testSource(t *testing.T, frames int) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "difftest", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 2, MeanPopulation: 2, BurstRate: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRun(t *testing.T, src video.Source, opt Options) Result {
	t.Helper()
	res, err := Run(src, opt, nil, simclock.Default(), simclock.PhaseDiffDetect)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInvariants(t *testing.T) {
	src := testSource(t, 3000)
	res := mustRun(t, src, Options{})
	if res.NumFrames() != 3000 {
		t.Fatalf("NumFrames = %d", res.NumFrames())
	}
	retained := make(map[int]bool)
	for i, f := range res.Retained {
		retained[f] = true
		if i > 0 && res.Retained[i-1] >= f {
			t.Fatal("Retained not strictly ascending")
		}
	}
	for i, rep := range res.RepOf {
		if !retained[int(rep)] {
			t.Fatalf("frame %d represented by non-retained frame %d", i, rep)
		}
		if retained[i] && int(rep) != i {
			t.Fatalf("retained frame %d has foreign representative %d", i, rep)
		}
	}
}

func TestMiddleFramesAlwaysRetained(t *testing.T) {
	src := testSource(t, 900)
	res := mustRun(t, src, Options{ClipSize: 30})
	retained := make(map[int]bool)
	for _, f := range res.Retained {
		retained[f] = true
	}
	for c := 0; c < 30; c++ {
		mid := c*30 + 15
		if !retained[mid] {
			t.Fatalf("clip %d middle frame %d not retained", c, mid)
		}
	}
}

func TestDiscardedFramesAreSimilar(t *testing.T) {
	src := testSource(t, 1500)
	opt := Options{}.withDefaults()
	res := mustRun(t, src, Options{})
	for i, rep := range res.RepOf {
		if int(rep) == i {
			continue
		}
		f, g := src.Render(i), src.Render(int(rep))
		mse, err := f.MSE(g)
		if err != nil {
			t.Fatal(err)
		}
		if mse >= opt.MSEThreshold {
			t.Fatalf("discarded frame %d has MSE %v >= threshold vs rep %d", i, mse, rep)
		}
	}
}

func TestThresholdExtremes(t *testing.T) {
	src := testSource(t, 300)
	// Threshold so small nothing is discarded (noise alone exceeds it).
	all := mustRun(t, src, Options{MSEThreshold: 1e-12})
	if len(all.Retained) != 300 {
		t.Fatalf("tiny threshold retained %d/300", len(all.Retained))
	}
	// Threshold so large only clip middles survive.
	few := mustRun(t, src, Options{MSEThreshold: 10, ClipSize: 30})
	if len(few.Retained) != 10 {
		t.Fatalf("huge threshold retained %d, want 10 middles", len(few.Retained))
	}
}

func TestReductionOnRealisticSource(t *testing.T) {
	src := testSource(t, 6000)
	res := mustRun(t, src, Options{})
	ratio := float64(len(res.Retained)) / 6000
	if ratio >= 1 {
		t.Fatalf("difference detector discarded nothing (ratio %v)", ratio)
	}
	if ratio < 0.02 {
		t.Fatalf("difference detector discarded almost everything (ratio %v)", ratio)
	}
	t.Logf("retention ratio %.3f", ratio)
}

func TestSegments(t *testing.T) {
	res := Result{RepOf: []int32{0, 0, 2, 2, 2, 5}}
	// Mark reps retained implicitly; Segments only reads RepOf.
	segs := res.Segments(0, 6)
	want := []Segment{{0, 2}, {2, 3}, {5, 1}}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v", segs)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segments = %v, want %v", segs, want)
		}
	}
	total := 0
	for _, s := range segs {
		total += s.Size
	}
	if total != 6 {
		t.Fatalf("segment sizes sum to %d", total)
	}
	// Sub-range query.
	sub := res.Segments(1, 4)
	if len(sub) != 2 || sub[0] != (Segment{0, 1}) || sub[1] != (Segment{2, 2}) {
		t.Fatalf("sub segments = %v", sub)
	}
}

func TestClockCharging(t *testing.T) {
	src := testSource(t, 500)
	clock := simclock.NewClock()
	cost := simclock.Default()
	if _, err := Run(src, Options{}, clock, cost, simclock.PhasePopulateD0); err != nil {
		t.Fatal(err)
	}
	want := 500 * (cost.DecodeMS + cost.DiffMS)
	if got := clock.PhaseMS(simclock.PhasePopulateD0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("charged %v, want %v", got, want)
	}
}

// TestDeterministicAcrossProcs is the workpool-era determinism contract:
// the detector result — retained set and representative map — must be
// bit-identical for every worker count.
func TestDeterministicAcrossProcs(t *testing.T) {
	src := testSource(t, 2000)
	serial := mustRun(t, src, Options{Procs: 1})
	check := func(name string, got Result) {
		t.Helper()
		if !reflect.DeepEqual(serial, got) {
			t.Fatalf("%s diverged from serial run", name)
		}
	}
	for _, procs := range []int{2, 8} {
		check(fmt.Sprintf("procs=%d", procs), mustRun(t, src, Options{Procs: procs}))
	}
	check("procs=0 (GOMAXPROCS)", mustRun(t, src, Options{}))
}

func TestShortVideo(t *testing.T) {
	src := testSource(t, 7) // shorter than one clip
	res := mustRun(t, src, Options{ClipSize: 30})
	if len(res.Retained) == 0 {
		t.Fatal("short video retained nothing")
	}
}

func TestNegativeClipSizeIsAnError(t *testing.T) {
	if _, err := Run(testSource(t, 100), Options{ClipSize: -5}, nil, simclock.Default(), simclock.PhaseDiffDetect); err == nil {
		t.Fatal("ClipSize -5 accepted")
	}
}

// TestVisitorSeesEveryFrameOnce: the visitor form decodes each frame
// exactly once and shows it — live pixels, right retain decision — to
// one visitor per worker, with the Result of the plain Run, at every
// worker count.
func TestVisitorSeesEveryFrameOnce(t *testing.T) {
	src := testSource(t, 1000)
	plain := mustRun(t, src, Options{Procs: 1})
	want := make([]float64, src.NumFrames())
	for i := range want {
		want[i] = src.Render(i).Pix[i] // one probe pixel per frame, never released
	}
	for _, opt := range []Options{{Procs: 1}, {Procs: 2}, {Procs: 8}} {
		counted := &countedSource{Source: src}
		var visitors atomic.Int32
		seen := make([]int32, src.NumFrames())
		kept := make([]bool, src.NumFrames())
		res, err := RunVisit(counted, opt, nil, simclock.Default(), simclock.PhaseDiffDetect, func() func(video.Frame, bool) {
			visitors.Add(1)
			return func(f video.Frame, retained bool) {
				seen[f.Index]++
				kept[f.Index] = retained
				if f.Pix[f.Index] != want[f.Index] {
					t.Errorf("frame %d visited with stale pixels", f.Index)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, res) {
			t.Fatalf("%+v: visited run diverged from the plain run", opt)
		}
		if got := counted.renders.Load(); int(got) != src.NumFrames() {
			t.Fatalf("%+v: %d renders for %d frames", opt, got, src.NumFrames())
		}
		if v := int(visitors.Load()); v < 1 || v > opt.Procs {
			t.Fatalf("%+v: %d visitors made for %d workers", opt, v, opt.Procs)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("%+v: frame %d visited %d times", opt, i, c)
			}
			if kept[i] != (int(res.RepOf[i]) == i) {
				t.Fatalf("%+v: frame %d visited as retained=%v, result says %v", opt, i, kept[i], !kept[i])
			}
		}
	}
}

// countedSource counts Render calls behind the Source interface.
type countedSource struct {
	video.Source
	renders atomic.Int64
}

func (s *countedSource) Render(i int) video.Frame {
	s.renders.Add(1)
	return s.Source.Render(i)
}
