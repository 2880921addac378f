package windows

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/everest-project/everest/internal/uncertain"
)

// testMixture is a single-component Gaussian mixture.
func testMixture(mean, sigma float64) uncertain.Mixture {
	return uncertain.Mixture{{Weight: 1, Mean: mean, Sigma: sigma}}
}

func TestNumSlidingWindows(t *testing.T) {
	cases := []struct{ n, size, stride, want int }{
		{100, 10, 10, 10}, // tumbling
		{100, 30, 30, 3},  // tumbling, partial tail dropped
		{90, 30, 30, 3},   // tumbling, exact fit
		{29, 30, 30, 0},   // tumbling, too short
		{100, 10, 5, 19},  // half-overlap
		{100, 10, 1, 91},  // per-frame
		{100, 10, 30, 4},  // gaps
		{10, 10, 3, 1},    // exactly one
		{9, 10, 1, 0},     // too short
		{100, 0, 1, 0},    // degenerate
		{100, 10, 0, 0},   // degenerate
	}
	for _, c := range cases {
		if got := NumSlidingWindows(c.n, c.size, c.stride); got != c.want {
			t.Fatalf("NumSlidingWindows(%d, %d, %d) = %d, want %d", c.n, c.size, c.stride, got, c.want)
		}
	}
}

func TestNumSlidingWindowsMatchesEnumeration(t *testing.T) {
	f := func(n, size, stride uint8) bool {
		nn, ss, st := int(n), 1+int(size)%20, 1+int(stride)%20
		count := 0
		for lo := 0; lo+ss <= nn; lo += st {
			count++
		}
		return NumSlidingWindows(nn, ss, st) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSlidingWindowsCoverStridedRanges(t *testing.T) {
	// With stride 5 and size 10 over 30 frames there are 5 windows; window
	// w must aggregate frames [5w, 5w+10). We verify via exact scores:
	// frame i scores i, so window w's mean is 5w + 4.5.
	score := func(rep int) FrameScore { return FrameScore{IsExact: true, Mean: float64(rep)} }
	rel, err := BuildRelation(score, flatDiff(30), Options{Size: 10, Stride: 5, Step: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rel) != 5 {
		t.Fatalf("%d windows, want 5", len(rel))
	}
	for w, x := range rel {
		if !x.Dist.IsCertain() {
			t.Fatalf("window %d not certain", w)
		}
		wantMean := float64(5*w) + 4.5
		got := float64(x.Dist.Min) * 0.5 // level → score units
		if math.Abs(got-wantMean) > 0.5 {
			t.Fatalf("window %d mean %v, want %v", w, got, wantMean)
		}
	}
}

func TestSlidingOracleSamplesWithinStridedWindow(t *testing.T) {
	var got [][]int
	o := &Oracle{
		ScoreFrames: func(ids []int) ([]float64, error) {
			got = append(got, append([]int(nil), ids...))
			return make([]float64, len(ids)), nil
		},
		Size:       10,
		Stride:     4,
		SampleFrac: 0.5,
		Step:       1,
		Seed:       3,
	}
	if _, err := o.CleanBatch([]int{0, 3}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d oracle calls, want 2", len(got))
	}
	for call, frames := range got {
		w := []int{0, 3}[call]
		lo, hi := w*4, w*4+10
		if len(frames) != 5 {
			t.Fatalf("window %d sampled %d frames, want 5", w, len(frames))
		}
		for _, f := range frames {
			if f < lo || f >= hi {
				t.Fatalf("window %d sampled frame %d outside [%d, %d)", w, f, lo, hi)
			}
		}
	}
}

func TestSlidingRelationSharesFrameInfluence(t *testing.T) {
	// Overlapping windows that share an uncertain segment must both carry
	// its variance — the correlation the union bound exists for.
	score := func(rep int) FrameScore {
		if rep == 8 {
			return mixScore(testMixture(5, 2))
		}
		return FrameScore{IsExact: true, Mean: 1}
	}
	rel, err := BuildRelation(score, flatDiff(20), Options{Size: 10, Stride: 4, Step: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0 ([0,10)), 1 ([4,14)) and 2 ([8,18)) all contain frame 8.
	for _, w := range []int{0, 1, 2} {
		if rel[w].Dist.IsCertain() {
			t.Fatalf("window %d should be uncertain (contains frame 8)", w)
		}
	}
}
