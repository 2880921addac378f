package metrics

import (
	"math"
	"testing"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestSlidingWindowTruthTumbling: with stride equal to size the truth is
// the tumbling one the window sweeps rank against — n/size windows in ID
// order, each the mean of its own frames, a partial tail dropped.
func TestSlidingWindowTruthTumbling(t *testing.T) {
	src := truthSource(t)
	udf := vision.CountUDF{Class: video.ClassCar}
	frames := FrameTruth(src, udf)
	const size = 30
	truth := SlidingWindowTruth(src, udf, size, size)
	if len(truth) != 1000/size {
		t.Fatalf("%d tumbling windows, want %d", len(truth), 1000/size)
	}
	for w, r := range truth {
		sum := 0.0
		for _, f := range frames[w*size : (w+1)*size] {
			sum += f.Score
		}
		if r.ID != w || r.Score != sum/size {
			t.Fatalf("window %d = %+v, want ID %d score %v", w, r, w, sum/size)
		}
	}
}

// truthSource is the small traffic video the truth tests score.
func truthSource(t *testing.T) *video.Synthetic {
	t.Helper()
	src, err := video.NewSynthetic(video.Config{
		Name: "truth", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: 1000, FPS: 30, Seed: 3, MeanPopulation: 3, BurstRate: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestFrameTruthScoresEveryFrame: the frame truth holds one entry per
// frame, in frame order, each the frame's exact object count.
func TestFrameTruthScoresEveryFrame(t *testing.T) {
	src := truthSource(t)
	frames := FrameTruth(src, vision.CountUDF{Class: video.ClassCar})
	if len(frames) != src.NumFrames() {
		t.Fatalf("%d truth entries, want %d", len(frames), src.NumFrames())
	}
	nonzero := 0
	for i, r := range frames {
		want := float64(src.CountObjects(i, video.ClassCar))
		if r.ID != i || r.Score != want {
			t.Fatalf("frame %d = %+v, want ID %d score %v", i, r, i, want)
		}
		if r.Score > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("every frame scores 0: the check above compares nothing")
	}
}

// TestSlidingWindowTruthOverlapping: with stride below size, windows
// overlap; window w covers frames [w·stride, w·stride+size) and the
// count is windows.NumSlidingWindows' (no partial tail).
func TestSlidingWindowTruthOverlapping(t *testing.T) {
	src := truthSource(t)
	udf := vision.CountUDF{Class: video.ClassCar}
	frames := FrameTruth(src, udf)
	const size, stride = 30, 7
	truth := SlidingWindowTruth(src, udf, size, stride)
	if want := (1000-size)/stride + 1; len(truth) != want {
		t.Fatalf("%d sliding windows, want %d", len(truth), want)
	}
	for w, r := range truth {
		sum := 0.0
		for _, f := range frames[w*stride : w*stride+size] {
			sum += f.Score
		}
		if r.ID != w || r.Score != sum/size {
			t.Fatalf("window %d = %+v, want ID %d score %v", w, r, w, sum/size)
		}
	}
}

// TestEvaluateExactAnswerIsPerfect: the exact Top-K, claimed in truth
// order, scores precision 1, rank distance 0 and score error 0.
func TestEvaluateExactAnswerIsPerfect(t *testing.T) {
	frames := FrameTruth(truthSource(t), vision.CountUDF{Class: video.ClassCar})
	truth := TrueTopK(frames, 10)
	ids := make([]int, len(truth))
	for i, r := range truth {
		ids[i] = r.ID
	}
	q := Evaluate(ids, func(id int) float64 { return frames[id].Score }, truth)
	if q != (Quality{Precision: 1}) {
		t.Fatalf("exact answer evaluates to %+v, want precision 1 and zero distance and error", q)
	}
}

// TestEvaluateJudgesByTrueScores: Evaluate scores an answer by what
// trueScore says of each ID. A frame that ties the K-th true score is a
// correct member (footnote 1); one below it costs precision and score
// error, and its absence from the truth costs rank distance.
func TestEvaluateJudgesByTrueScores(t *testing.T) {
	truth := []Ranked{{ID: 1, Score: 9}, {ID: 2, Score: 8}, {ID: 3, Score: 5}}
	exact := map[int]float64{1: 9, 2: 8, 3: 5, 4: 5, 5: 2}
	score := func(id int) float64 { return exact[id] }

	tie := Evaluate([]int{1, 2, 4}, score, truth)
	if tie.Precision != 1 || tie.ScoreError != 0 {
		t.Fatalf("tied answer = %+v, want precision 1 and score error 0", tie)
	}
	if tie.RankDistance <= 0 {
		t.Fatalf("tied answer rank distance %v: frame 4 is outside the truth's IDs", tie.RankDistance)
	}

	wrong := Evaluate([]int{1, 2, 5}, score, truth)
	if math.Abs(wrong.Precision-2.0/3) > 1e-12 {
		t.Fatalf("one wrong frame: precision %v, want 2/3", wrong.Precision)
	}
	if wrong.ScoreError <= 0 || wrong.RankDistance <= 0 {
		t.Fatalf("one wrong frame = %+v, want positive score error and rank distance", wrong)
	}
}
