// Package windows implements Everest's Top-K window queries.
//
// Tumbling windows (§3.4): the video is split into consecutive
// non-overlapping windows of L frames, a window's score is the mean of
// its frames' scores, and the window score distribution is approximated
// by a Gaussian assembled from the difference-detector segments (Eq. 9),
// quantized into x-tuples compatible with the Phase 2 engine.
//
// Sliding windows (an extension beyond the paper): windows of L frames
// start every Stride frames. When Stride < Size the windows overlap and
// share frames, so their scores are correlated and the x-tuple
// independence assumption of §2 no longer holds; such relations must be
// processed with core.BoundUnion, the dependence-safe Bonferroni bound.
// Stride == Size recovers tumbling windows exactly. Every builder
// aggregates on the calling goroutine, in window order.
package windows

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/xrand"
)

// FrameScore is what Phase 1 knows about one retained frame: either the
// proxy's mixture or an exact oracle label.
type FrameScore struct {
	// Mix is the CMDN mixture (nil when exact).
	Mix uncertain.Mixture
	// Exact is the oracle score, valid when IsExact.
	Exact float64
	// IsExact marks frames labelled during Phase 1 sampling.
	IsExact bool
}

// Options configures window construction; scoreOf is never called
// concurrently.
type Options struct {
	// Size is L, the frames per window.
	Size int
	// Stride is the offset between consecutive window starts; zero means
	// Size (tumbling). Stride < Size produces overlapping windows.
	Stride int
	// Step is the quantization step for window mean scores.
	Step float64
	// MaxLevel clamps window levels (use the UDF's bound); zero means
	// unbounded.
	MaxLevel int
}

func (o Options) stride() int {
	if o.Stride <= 0 {
		return o.Size
	}
	return o.Stride
}

// NumSlidingWindows returns the number of complete windows of the given
// size starting every stride frames in n frames.
func NumSlidingWindows(n, size, stride int) int {
	if n < size || size <= 0 || stride <= 0 {
		return 0
	}
	return (n-size)/stride + 1
}

// Overlapping reports whether the options describe overlapping windows
// (requiring the union-bound engine).
func (o Options) Overlapping() bool { return o.stride() < o.Size }

// BuildRelation constructs the window uncertain relation. scoreOf must
// return the Phase 1 knowledge for any retained frame index; diff supplies
// the segment structure (frames represented by each retained frame).
//
// Per Eq. 9, window w with segments s_1..s_l represented by frames
// r_1..r_l gets S_w ~ N(1/L Σ|s_t|·μ̄_rt, 1/L Σ|s_t|·σ̄²_rt). Windows whose
// segments are all exact become certain tuples. The reported error is
// the lowest failing window's.
func BuildRelation(scoreOf func(rep int) FrameScore, diff diffdet.Result, opt Options) (uncertain.Relation, error) {
	s, err := shapeOf(diff, opt)
	if err != nil {
		return nil, err
	}
	rel := make(uncertain.Relation, s.n)
	failed := s.run(scoreOf, diff, s.n, func(i int) int { return i }, func(i int, d uncertain.Dist) {
		rel[i] = uncertain.XTuple{ID: i, Dist: d}
	})
	if len(failed) > 0 {
		return nil, failed[0].err
	}
	return rel, nil
}

// Extend aggregates, in place, the windows of rel from done on: rel
// holds one tuple per complete window and its first done are already
// BuildRelation's — what a window relation is after frames are appended
// to the video and the caller lengthens it, since a window that ends
// within the old frames reads only old frames and old representatives.
// Only rel[done:] is written, so a reader of the prefix is unaffected
// and growing a relation one append at a time costs O(new windows).
// failed lists, ascending, the new windows whose aggregation failed:
// their tuples carry the ID and the zero distribution, and Reaggregate
// reports their error. err is non-nil only for an invalid shape, a
// video with no complete window, or a rel of another length.
func Extend(rel uncertain.Relation, done int, scoreOf func(rep int) FrameScore, diff diffdet.Result, opt Options) (failed []int, err error) {
	s, err := shapeOf(diff, opt)
	if err != nil {
		return nil, err
	}
	if len(rel) != s.n || done < 0 || done > s.n {
		return nil, fmt.Errorf("windows: extending %d of %d windows in a relation of %d", s.n-done, s.n, len(rel))
	}
	for w := done; w < s.n; w++ {
		rel[w] = uncertain.XTuple{ID: w}
	}
	for _, f := range s.run(scoreOf, diff, s.n-done, func(i int) int { return done + i }, func(i int, d uncertain.Dist) {
		rel[done+i].Dist = d
	}) {
		failed = append(failed, done+f.i)
	}
	return failed, nil
}

// Reaggregate recomputes, in place, the windows ids (ascending, each a
// window of rel) under scoreOf: each gets exactly the distribution
// BuildRelation would give it. The error, if any, is the lowest failing
// window's; rel is then partly rewritten and must be discarded.
func Reaggregate(rel uncertain.Relation, ids []int, scoreOf func(rep int) FrameScore, diff diffdet.Result, opt Options) error {
	s, err := shapeOf(diff, opt)
	if err != nil {
		return err
	}
	failed := s.run(scoreOf, diff, len(ids), func(i int) int { return ids[i] }, func(i int, d uncertain.Dist) {
		rel[ids[i]].Dist = d
	})
	if len(failed) > 0 {
		return failed[0].err
	}
	return nil
}

// shape is a validated window shape over one segment structure.
type shape struct {
	size, stride, maxLevel int
	qopt                   uncertain.QuantizeOptions
	n                      int // complete windows
}

func shapeOf(diff diffdet.Result, opt Options) (shape, error) {
	if opt.Size <= 0 {
		return shape{}, fmt.Errorf("windows: size must be positive, got %d", opt.Size)
	}
	if opt.Step <= 0 {
		return shape{}, fmt.Errorf("windows: step must be positive, got %v", opt.Step)
	}
	s := shape{size: opt.Size, stride: opt.stride(), maxLevel: opt.MaxLevel}
	n := diff.NumFrames()
	if s.n = NumSlidingWindows(n, s.size, s.stride); s.n == 0 {
		return shape{}, fmt.Errorf("windows: no complete window of %d frames in %d", opt.Size, n)
	}
	if s.maxLevel == 0 {
		s.maxLevel = math.MaxInt
	}
	s.qopt = uncertain.QuantizeOptions{Step: opt.Step, MinLevel: 0, MaxLevel: s.maxLevel}
	return s, nil
}

// failure is the i-th window of a run whose aggregation failed.
type failure struct {
	i   int
	err error
}

// run aggregates the windows window(0) .. window(m-1) in order, handing
// the i-th window's distribution to put. It returns the failures in
// ascending i.
func (s shape) run(scoreOf func(rep int) FrameScore, diff diffdet.Result, m int, window func(i int) int, put func(i int, d uncertain.Dist)) (failed []failure) {
	for i := range m {
		d, err := s.aggregate(scoreOf, diff, window(i))
		if err != nil {
			failed = append(failed, failure{i, err})
			continue
		}
		put(i, d)
	}
	return failed
}

// aggregate is the one per-window body (Eq. 9) every builder runs.
func (s shape) aggregate(scoreOf func(rep int) FrameScore, diff diffdet.Result, w int) (uncertain.Dist, error) {
	lo, hi := w*s.stride, w*s.stride+s.size
	var mean, variance float64
	allExact := true
	diff.EachSegment(lo, hi, func(seg diffdet.Segment) {
		fs := scoreOf(seg.Rep)
		frac := float64(seg.Size) / float64(s.size)
		if fs.IsExact {
			mean += frac * fs.Exact
			return
		}
		allExact = false
		mean += frac * fs.Mix.Mean()
		// Eq. 9 uses (1/L)·Σ|s_t|·σ̄², i.e. segment-weighted total
		// variance (conservative vs. the independent-average 1/L²).
		variance += frac * fs.Mix.Variance()
	})
	if allExact {
		lvl := uncertain.LevelOf(mean, s.qopt.Step)
		return uncertain.Certain(min(max(lvl, 0), s.maxLevel)), nil
	}
	d, err := uncertain.QuantizeNormal(mean, math.Sqrt(variance), s.qopt)
	if err != nil {
		return uncertain.Dist{}, fmt.Errorf("windows: window %d: %w", w, err)
	}
	return d, nil
}

// Oracle confirms windows by sampling a fraction of each window's frames,
// scoring them with the exact model, and reporting the sample-mean level
// (§3.4: "we only sample some frames to verify with the oracle and compute
// the sample mean").
type Oracle struct {
	// ScoreFrames returns exact scores for frame indices (the frame-level
	// oracle; it must charge its own inference cost).
	ScoreFrames func(ids []int) ([]float64, error)
	// Size is L.
	Size int
	// Stride is the window start offset; zero means Size (tumbling).
	Stride int
	// SampleFrac is the fraction of window frames scored; zero means 0.1
	// (the paper's 10%).
	SampleFrac float64
	// Step quantizes the sample mean to a level.
	Step float64
	// Seed drives sampling.
	Seed uint64
}

// SamplesPerWindow returns how many frames one confirmation scores.
func (o *Oracle) SamplesPerWindow() int {
	frac := o.SampleFrac
	if frac == 0 {
		frac = 0.1
	}
	k := int(math.Ceil(frac * float64(o.Size)))
	if k < 1 {
		k = 1
	}
	if k > o.Size {
		k = o.Size
	}
	return k
}

// CleanBatch implements core.Oracle over window IDs.
func (o *Oracle) CleanBatch(ids []int) ([]int, error) {
	k := o.SamplesPerWindow()
	stride := o.Stride
	if stride <= 0 {
		stride = o.Size
	}
	out := make([]int, len(ids))
	root := xrand.New(o.Seed).Split("windows/oracle")
	for j, w := range ids {
		r := root.SplitIndex(uint64(w))
		offsets := r.SampleK(o.Size, k)
		frames := make([]int, k)
		for i, off := range offsets {
			frames[i] = w*stride + off
		}
		scores, err := o.ScoreFrames(frames)
		if err != nil {
			return nil, err
		}
		mean := 0.0
		for _, s := range scores {
			mean += s
		}
		mean /= float64(len(scores))
		out[j] = uncertain.LevelOf(mean, o.Step)
	}
	return out, nil
}
