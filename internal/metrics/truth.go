package metrics

import (
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/windows"
)

// FrameTruth is the ground truth of a (video, UDF) pair: the UDF's exact
// score of every frame, with the frame index as ID. No cost is charged:
// this is evaluation machinery, not part of any system under test.
func FrameTruth(src video.Source, udf vision.UDF) []Ranked {
	n := src.NumFrames()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	scores := udf.Score(src, ids)
	out := make([]Ranked, n)
	for i := range out {
		out[i] = Ranked{ID: i, Score: scores[i]}
	}
	return out
}

// SlidingWindowTruth is the ground truth of strided windows: each
// window's mean exact frame score, with the window index as ID (stride
// == size gives tumbling windows).
func SlidingWindowTruth(src video.Source, udf vision.UDF, size, stride int) []Ranked {
	frames := FrameTruth(src, udf)
	nw := windows.NumSlidingWindows(len(frames), size, stride)
	out := make([]Ranked, nw)
	for w := 0; w < nw; w++ {
		sum := 0.0
		for f := w * stride; f < w*stride+size; f++ {
			sum += frames[f].Score
		}
		out[w] = Ranked{ID: w, Score: sum / float64(size)}
	}
	return out
}

// Quality bundles the paper's three result-quality metrics.
type Quality struct {
	Precision    float64
	RankDistance float64
	ScoreError   float64
}

// Evaluate computes Quality for a claimed result against the true
// Top-K; trueScore returns any item's exact score.
func Evaluate(ids []int, trueScore func(int) float64, truth []Ranked) Quality {
	scores := make(map[int]float64, len(ids))
	exact := make([]float64, len(ids))
	for i, id := range ids {
		s := trueScore(id)
		scores[id] = s
		exact[i] = s
	}
	return Quality{
		Precision:    Precision(ids, truth, scores),
		RankDistance: RankDistance(ids, truth),
		ScoreError:   ScoreError(exact, truth),
	}
}
