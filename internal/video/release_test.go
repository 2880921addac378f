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
