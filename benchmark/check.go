package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/windows"
)

// truth is the exhaustive ground truth of one (video, UDF) pair: the
// bare oracle's score of every frame, computed once at set-up outside
// the counting wrapper. Top-K lists are cached per query shape, because
// the op lists repeat a small pool of shapes.
type truth struct {
	scores []float64
	step   float64
	topk   map[truthKey][]metrics.Ranked
}

type truthKey struct{ frames, k, window, stride int }

func newTruth(src video.Source, udf vision.UDF) *truth {
	ids := make([]int, src.NumFrames())
	for i := range ids {
		ids[i] = i
	}
	return truthOf(udf.Score(src, ids), udf.Quantize().Step)
}

func truthOf(scores []float64, step float64) *truth {
	return &truth{scores: scores, step: step, topk: make(map[truthKey][]metrics.Ranked)}
}

// exact is the true score of a frame (window 0) or the true mean of a
// window.
func (t *truth) exact(id, window, stride int) float64 {
	if window == 0 {
		return t.scores[id]
	}
	s := 0.0
	for f := id * stride; f < id*stride+window; f++ {
		s += t.scores[f]
	}
	return s / float64(window)
}

// top is the exact Top-K over the first `frames` frames — the whole
// video, or the ingested prefix at a live stream's frontier.
func (t *truth) top(key truthKey) []metrics.Ranked {
	if top, ok := t.topk[key]; ok {
		return top
	}
	n := key.frames
	if key.window > 0 {
		n = windows.NumSlidingWindows(key.frames, key.window, key.stride)
	}
	items := make([]metrics.Ranked, n)
	for i := range items {
		items[i] = metrics.Ranked{ID: i, Score: t.exact(i, key.window, key.stride)}
	}
	top := metrics.TrueTopK(items, key.k)
	t.topk[key] = top
	return top
}

// answer is one query's result inside an op, with everything needed to
// check it after the measured window has closed.
type answer struct {
	IDs        []int
	Scores     []float64
	Confidence float64
	SimMS      float64

	// What was asked, and of which video prefix.
	K, Window, Stride int
	Threshold         float64
	SampleFrac        float64
	Seed              uint64
	Frames            int
	Truth             *truth
	// Cached marks an answer computed over a label cache. A cached
	// window's score may come from the relation build (a window whose
	// segment representatives are all labelled is certain at their
	// weighted mean) instead of the oracle's sampler, so only cache-free
	// window scores are checked for equality.
	Cached bool
}

// answerOf packages a Result with the query that produced it.
func answerOf(res *everest.Result, cfg everest.Config, frames int, tr *truth) answer {
	a := answer{
		IDs: res.IDs, Scores: res.Scores, Confidence: res.Confidence,
		SimMS: res.Clock.TotalMS(),
		K:     cfg.K, Window: cfg.Window, Stride: cfg.Stride, Threshold: cfg.Threshold,
		SampleFrac: cfg.WindowSampleFrac, Seed: cfg.Seed, Frames: frames, Truth: tr,
	}
	if a.Threshold == 0 {
		a.Threshold = 0.9
	}
	if a.Window > 0 && a.Stride == 0 {
		a.Stride = a.Window
	}
	return a
}

// check applies the per-answer correctness rules: K results, scores
// non-increasing, every returned score equal to the oracle's score for
// that ID (for a window: the level of the oracle's sample mean over the
// frames the engine's own seeded sampler picks), and confidence at or
// above the threshold.
func (a *answer) check() error {
	if len(a.IDs) != a.K || len(a.Scores) != a.K {
		return fmt.Errorf("%d ids and %d scores for K=%d", len(a.IDs), len(a.Scores), a.K)
	}
	for i := 1; i < len(a.Scores); i++ {
		if a.Scores[i] > a.Scores[i-1] {
			return fmt.Errorf("scores increase at rank %d (%v after %v)", i, a.Scores[i], a.Scores[i-1])
		}
	}
	if a.Confidence < a.Threshold {
		return fmt.Errorf("confidence %v below threshold %v", a.Confidence, a.Threshold)
	}
	want := make([]float64, len(a.IDs))
	if a.Window == 0 {
		for i, id := range a.IDs {
			if id < 0 || id >= a.Frames {
				return fmt.Errorf("frame %d outside the %d-frame video", id, a.Frames)
			}
			want[i] = uncertain.LevelValue(uncertain.LevelOf(a.Truth.scores[id], a.Truth.step), a.Truth.step)
		}
	} else if a.Cached {
		return nil
	} else {
		or := windows.Oracle{
			ScoreFrames: func(ids []int) ([]float64, error) {
				out := make([]float64, len(ids))
				for i, f := range ids {
					out[i] = a.Truth.scores[f]
				}
				return out, nil
			},
			Size: a.Window, Stride: a.Stride, SampleFrac: a.SampleFrac, Step: a.Truth.step, Seed: a.Seed,
		}
		nw := windows.NumSlidingWindows(a.Frames, a.Window, a.Stride)
		for _, id := range a.IDs {
			if id < 0 || id >= nw {
				return fmt.Errorf("window %d outside the %d windows", id, nw)
			}
		}
		levels, err := or.CleanBatch(a.IDs)
		if err != nil {
			return err
		}
		for i, l := range levels {
			want[i] = uncertain.LevelValue(l, a.Truth.step)
		}
	}
	for i := range want {
		if a.Scores[i] != want[i] {
			return fmt.Errorf("id %d returned with score %v, the oracle says %v", a.IDs[i], a.Scores[i], want[i])
		}
	}
	return nil
}

// precision is the paper's precision against exhaustive ground truth.
func (a *answer) precision() float64 {
	exact := make(map[int]float64, len(a.IDs))
	for _, id := range a.IDs {
		exact[id] = a.Truth.exact(id, a.Window, a.Stride)
	}
	return metrics.Precision(a.IDs, a.Truth.top(truthKey{a.Frames, a.K, a.Window, a.Stride}), exact)
}

// digest hashes every op's IDs, scores and simulated charges in
// execution order. The same -seed gives the same digest on every run
// and on every commit that does not change an answer.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digest) op(out *opOut) {
	d.u64(uint64(len(out.Answers)))
	d.u64(math.Float64bits(out.SimMS))
	for _, a := range out.Answers {
		d.u64(uint64(len(a.IDs)))
		for i, id := range a.IDs {
			d.u64(uint64(id))
			d.u64(math.Float64bits(a.Scores[i]))
		}
		d.u64(math.Float64bits(a.SimMS))
	}
}

func (d *digest) String() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }

// sameAnswers reports how a ladder replay differs from the op it
// replays: IDs, scores and simulated charges must all match.
func sameAnswers(op, ladder *opOut) error {
	if len(op.Answers) != len(ladder.Answers) {
		return fmt.Errorf("op has %d answers, ladder %d", len(op.Answers), len(ladder.Answers))
	}
	if op.SimMS != ladder.SimMS {
		return fmt.Errorf("op charged %v sim ms, ladder %v", op.SimMS, ladder.SimMS)
	}
	for i := range op.Answers {
		a, b := op.Answers[i], ladder.Answers[i]
		if a.SimMS != b.SimMS {
			return fmt.Errorf("answer %d charged %v sim ms, ladder %v", i, a.SimMS, b.SimMS)
		}
		if len(a.IDs) != len(b.IDs) {
			return fmt.Errorf("answer %d has %d ids, ladder %d", i, len(a.IDs), len(b.IDs))
		}
		for j := range a.IDs {
			if a.IDs[j] != b.IDs[j] || a.Scores[j] != b.Scores[j] {
				return fmt.Errorf("answer %d rank %d is (%d, %v), ladder (%d, %v)", i, j, a.IDs[j], a.Scores[j], b.IDs[j], b.Scores[j])
			}
		}
	}
	return nil
}
