package video

import (
	"slices"
	"sync"
	"testing"
)

// releaseSources are a fixed and a drifting camera: the first copies
// its memoized background into a recycled buffer, the second fills the
// buffer per frame.
func releaseSources(t *testing.T) map[string]*Synthetic {
	t.Helper()
	out := make(map[string]*Synthetic)
	for _, name := range []string{"Archie", "Dashcam-California"} {
		spec, err := DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		s, err := spec.Build(600)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = s
	}
	return out
}

// TestReleaseLeavesNoResidue: a recycled buffer carries nothing of the
// frame it held before — a frame re-rendered after its buffer went
// through other frames equals the copy taken the first time.
func TestReleaseLeavesNoResidue(t *testing.T) {
	for name, s := range releaseSources(t) {
		f := s.Render(123)
		want := slices.Clone(f.Pix)
		f.Release()
		for _, i := range []int{0, 599, 124, 300} {
			s.Render(i).Release()
		}
		g := s.Render(123)
		if !slices.Equal(g.Pix, want) {
			t.Errorf("%s: frame 123 re-rendered into a recycled buffer differs from its first render", name)
		}
		// An unreleased frame is never handed out again.
		h := s.Render(300)
		if &h.Pix[0] == &g.Pix[0] {
			t.Errorf("%s: two live frames share a pixel buffer", name)
		}
		if !slices.Equal(g.Pix, want) {
			t.Errorf("%s: rendering another frame overwrote a live one", name)
		}
	}
}

// TestReleaseConcurrent: workers that render and release concurrently
// (as the difference detector's do) read exactly the pixels a
// never-releasing caller reads.
func TestReleaseConcurrent(t *testing.T) {
	for name, s := range releaseSources(t) {
		n := s.NumFrames()
		want := make([][]float64, n)
		for i := range want {
			want[i] = s.Render(i).Pix // never released
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += 3 { // overlapping strides: frames are rendered by several workers
					f := s.Render(i)
					ok := slices.Equal(f.Pix, want[i])
					f.Release()
					if !ok {
						t.Errorf("%s: worker %d read different pixels for frame %d", name, w, i)
						return
					}
				}
			}(w)
		}
		wg.Wait()
	}
}

// opaqueSource hides the concrete source behind the interface, the way
// a tracing or counting wrapper does.
type opaqueSource struct{ Source }

// TestReleaseThroughWrappers: the buffer goes home through the Frame
// value, so it survives wrappers that know nothing about recycling.
func TestReleaseThroughWrappers(t *testing.T) {
	s := releaseSources(t)["Archie"]
	sl, err := Slice(opaqueSource{s}, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	f := sl.Render(5)
	if f.Index != 5 || f.buf == nil || f.buf.pool != &s.bufs {
		t.Fatalf("frame %d through a slice over an opaque wrapper lost its way back to the source's pool", f.Index)
	}
	f.Release()
}

// staticSource renders without a pool.
type staticSource struct{ Source }

func (staticSource) Render(i int) Frame { return Frame{Index: i, W: 1, H: 1, Pix: []float64{0.5}} }

func TestReleaseNoOp(t *testing.T) {
	Frame{}.Release()
	f := staticSource{}.Render(3)
	f.Release()
	f.Release()
	if f.Pix[0] != 0.5 {
		t.Fatal("Release touched a frame its source does not recycle")
	}
}

// TestRenderAllocatesNothingWhenReleased is Render's doc comment as a
// test: rendering into a buffer that has been released allocates nothing
// — not the pixels, not the scene's object list. The released buffer is
// handed back directly, not through the sync.Pool, whose Get may miss
// (always after a GC, at random under the race detector); BenchmarkRender
// reports the same 0 allocs/op through the pool.
func TestRenderAllocatesNothingWhenReleased(t *testing.T) {
	for name, s := range releaseSources(t) {
		busiest := 0
		for i := 0; i < s.NumFrames(); i++ {
			if len(s.Scene(i).Objects) > len(s.Scene(busiest).Objects) {
				busiest = i
			}
		}
		buf := s.Render(busiest).buf // warm: pixels, and scratch for the longest object list
		i := 0
		if allocs := testing.AllocsPerRun(200, func() {
			s.renderInto(buf, i%s.NumFrames())
			i += 7
		}); allocs != 0 {
			t.Errorf("%s: rendering into a released buffer allocates %v objects per frame, want 0", name, allocs)
		}
	}
}

// TestLiveFramesShareNoScratch: the scene-walk scratch travels with the
// pixel buffer, so two frames held at once never share it, and a frame's
// scratch is not rewritten while the frame is live.
func TestLiveFramesShareNoScratch(t *testing.T) {
	for name, s := range releaseSources(t) {
		var busy []int
		for i := 0; i < s.NumFrames() && len(busy) < 2; i++ {
			if len(s.Scene(i).Objects) > 0 {
				busy = append(busy, i)
			}
		}
		if len(busy) < 2 {
			t.Fatalf("%s: fewer than two frames with objects", name)
		}
		f := s.Render(busy[0])
		objs := slices.Clone(f.buf.objs)
		if !slices.Equal(objs, s.Scene(busy[0]).Objects) {
			t.Errorf("%s: Render walked a different scene than Scene returns", name)
		}
		g := s.Render(busy[1])
		if f.buf == g.buf || &f.buf.objs[0] == &g.buf.objs[0] {
			t.Errorf("%s: two live frames share scene scratch", name)
		}
		if !slices.Equal(f.buf.objs, objs) {
			t.Errorf("%s: rendering another frame rewrote a live frame's scratch", name)
		}
		// The exported Scene hands out memory of its own.
		sc := s.Scene(busy[1])
		if &sc.Objects[0] == &g.buf.objs[0] {
			t.Errorf("%s: Scene returned Render's scratch", name)
		}
		f.Release()
		g.Release()
	}
}
