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
// Stride == Size recovers tumbling windows exactly.
package windows

import (
	"fmt"
	"math"

	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/workpool"
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

// Options configures window construction.
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
	// Procs bounds the workers BuildRelation aggregates windows on,
	// following the engine-wide Config.Procs convention: zero or negative
	// means GOMAXPROCS. Results are bit-identical for every value. When
	// the effective worker count exceeds 1, scoreOf must be safe for
	// concurrent calls (a read of immutable state, e.g. a map populated
	// before the call).
	Procs int
	// Pool, when non-nil, aggregates the windows on a caller-owned
	// resident worker pool instead of transient goroutines (serving
	// paths reuse one pool per query). Never affects results.
	Pool *workpool.Pool
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
// segments are all exact become certain tuples.
//
// Every window is a pure function of its index (diff and scoreOf are
// read-only during the call), so the aggregation fans out over opt.Procs
// workers with index-ordered emission; the relation — and the reported
// error, always the lowest failing window's — are bit-identical to the
// serial scan for every worker count.
func BuildRelation(scoreOf func(rep int) FrameScore, diff diffdet.Result, opt Options) (uncertain.Relation, error) {
	if opt.Size <= 0 {
		return nil, fmt.Errorf("windows: size must be positive, got %d", opt.Size)
	}
	if opt.Step <= 0 {
		return nil, fmt.Errorf("windows: step must be positive, got %v", opt.Step)
	}
	stride := opt.stride()
	n := diff.NumFrames()
	nw := NumSlidingWindows(n, opt.Size, stride)
	if nw == 0 {
		return nil, fmt.Errorf("windows: no complete window of %d frames in %d", opt.Size, n)
	}
	maxLevel := opt.MaxLevel
	if maxLevel == 0 {
		maxLevel = math.MaxInt
	}
	qopt := uncertain.QuantizeOptions{Step: opt.Step, MinLevel: 0, MaxLevel: maxLevel}

	type windowOut struct {
		d   uncertain.Dist
		err error
	}
	outs := workpool.MapOn(opt.Pool, opt.Procs, nw, func(_, w int) windowOut {
		lo, hi := w*stride, w*stride+opt.Size
		var mean, variance float64
		allExact := true
		diff.EachSegment(lo, hi, func(seg diffdet.Segment) {
			fs := scoreOf(seg.Rep)
			frac := float64(seg.Size) / float64(opt.Size)
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
			lvl := uncertain.LevelOf(mean, opt.Step)
			return windowOut{d: uncertain.Certain(min(max(lvl, 0), maxLevel))}
		}
		d, err := uncertain.QuantizeNormal(mean, math.Sqrt(variance), qopt)
		if err != nil {
			return windowOut{err: fmt.Errorf("windows: window %d: %w", w, err)}
		}
		return windowOut{d: d}
	})
	rel := make(uncertain.Relation, 0, nw)
	for w, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rel = append(rel, uncertain.XTuple{ID: w, Dist: o.d})
	}
	return rel, nil
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
