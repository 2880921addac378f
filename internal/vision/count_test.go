package vision

import (
	"testing"

	"github.com/everest-project/everest/internal/video"
)

// archieScoreIDs is BenchmarkCountUDFScore's input: 32 frames spread
// over Archie at its default length, timeline generated.
func archieScoreIDs(tb testing.TB) (*video.Synthetic, []int) {
	tb.Helper()
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		tb.Fatal(err)
	}
	src, err := spec.Build(0)
	if err != nil {
		tb.Fatal(err)
	}
	src.TrueCountFast(0) // the first frame read generates the timeline
	ids := make([]int, 32)
	for k := range ids {
		ids[k] = k * src.NumFrames() / len(ids)
	}
	return src, ids
}

// TestCountUDFScoreAllocatesOnlyItsOutput: scoring builds no scene and no
// detections — the score slice is the one allocation.
func TestCountUDFScoreAllocatesOnlyItsOutput(t *testing.T) {
	src, ids := archieScoreIDs(t)
	udf := CountUDF{Class: video.ClassCar}
	if n := testing.AllocsPerRun(100, func() { udf.Score(src, ids) }); n != 1 {
		t.Fatalf("CountUDF.Score over %d frames allocates %v objects, want 1", len(ids), n)
	}
}

// scoreSink keeps BenchmarkCountUDFScore's calls live.
var scoreSink []float64

// BenchmarkCountUDFScore is one oracle call of the counting UDF over 32
// frames of Archie.
func BenchmarkCountUDFScore(b *testing.B) {
	src, ids := archieScoreIDs(b)
	udf := CountUDF{Class: video.ClassCar}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scoreSink = udf.Score(src, ids)
	}
}
