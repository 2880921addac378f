package vision

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/xrand"
)

func randBox(r *xrand.RNG) BBox {
	return BBox{
		X: r.Float64(), Y: r.Float64(),
		W: 0.01 + 0.5*r.Float64(), H: 0.01 + 0.5*r.Float64(),
	}
}

func TestIoUProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		a, b := randBox(r), randBox(r)
		ab, ba := a.IoU(b), b.IoU(a)
		// Symmetric, bounded, and exactly 1 only against itself.
		if math.Abs(ab-ba) > 1e-12 {
			return false
		}
		if ab < 0 || ab > 1 {
			return false
		}
		if math.Abs(a.IoU(a)-1) > 1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIoUContainment(t *testing.T) {
	outer := BBox{0, 0, 1, 1}
	inner := BBox{0.25, 0.25, 0.5, 0.5}
	want := 0.25 // inner area / outer area
	if got := outer.IoU(inner); math.Abs(got-want) > 1e-12 {
		t.Fatalf("containment IoU = %v, want %v", got, want)
	}
}

func TestTailgateUDFRequiresSynthetic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TailgateUDF on a non-synthetic source should panic")
		}
	}()
	var fake fakeSource
	vision := TailgateUDF{}
	vision.Score(fake, []int{0})
}

func TestSentimentUDFRequiresSynthetic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SentimentUDF on a non-synthetic source should panic")
		}
	}()
	SentimentUDF{}.Score(fakeSource{}, []int{0})
}

// fakeSource is a minimal non-synthetic video.Source.
type fakeSource struct{}

func (fakeSource) Name() string                 { return "fake" }
func (fakeSource) NumFrames() int               { return 1 }
func (fakeSource) FPS() int                     { return 30 }
func (fakeSource) TargetClass() string          { return video.ClassCar }
func (fakeSource) Scene(int) video.Scene        { return video.Scene{} }
func (fakeSource) CountObjects(int, string) int { return 0 }
func (fakeSource) Render(int) video.Frame       { return video.Frame{W: 1, H: 1, Pix: []float64{0}} }
func (fakeSource) Resolution() (int, int)       { return 1, 1 }

func TestTailgateCustomBounds(t *testing.T) {
	u := TailgateUDF{MaxGap: 30, Step: 1}
	q := u.Quantize()
	if q.MaxLevel != 30 || q.Step != 1 {
		t.Fatalf("quantize %+v", q)
	}
}

func TestSentimentQuantizeStep(t *testing.T) {
	u := SentimentUDF{Step: 2}
	q := u.Quantize()
	if q.Step != 2 || q.MaxLevel != 50 {
		t.Fatalf("quantize %+v", q)
	}
}

func TestTrackerEmptyFrames(t *testing.T) {
	tr := NewTracker()
	if got := tr.Track(nil); len(got) != 0 {
		t.Fatalf("tracking empty frame returned %v", got)
	}
	// An object appearing after an empty frame gets a fresh ID.
	d := tr.Track([]Detection{{Class: "car", Box: BBox{0.1, 0.1, 0.1, 0.1}}})
	if d[0].ObjectID == 0 {
		t.Fatal("no ID after empty frame")
	}
}

func TestTrackerGreedyPicksBestOverlap(t *testing.T) {
	tr := NewTracker()
	first := tr.Track([]Detection{
		{Class: "car", Box: BBox{0.10, 0.10, 0.20, 0.20}},
		{Class: "car", Box: BBox{0.50, 0.50, 0.20, 0.20}},
	})
	// Next frame: both moved slightly; matching must pair each with its
	// nearest predecessor, not cross over.
	second := tr.Track([]Detection{
		{Class: "car", Box: BBox{0.12, 0.10, 0.20, 0.20}},
		{Class: "car", Box: BBox{0.52, 0.50, 0.20, 0.20}},
	})
	if second[0].ObjectID != first[0].ObjectID || second[1].ObjectID != first[1].ObjectID {
		t.Fatalf("greedy matching crossed over: %+v vs %+v", first, second)
	}
}

func TestOracleDetectorCountsAllClasses(t *testing.T) {
	src := trafficSource(t, 500)
	det := OracleDetector{}
	for i := 0; i < 500; i += 29 {
		dets := det.Detect(src, i)
		if len(dets) != len(src.Scene(i).Objects) {
			t.Fatalf("frame %d: %d detections for %d objects", i, len(dets), len(src.Scene(i).Objects))
		}
	}
}
