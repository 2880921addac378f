// Package diffdet implements Everest's difference detector (§3.5): it
// discards frames too similar to a retained neighbour, which (a) removes
// uninformative frames before proxy inference and (b) justifies modelling
// the retained frames as independent x-tuples (§3.2).
//
// Following the paper (and NoScope [38]), similarity is pixel mean squared
// error. To parallelize, the video is split into clips of c frames; every
// frame in a clip is compared against the clip's middle frame and
// discarded when the MSE falls below the threshold. Clips fan out through
// the engine-wide workpool: each clip is a pure function of its index and
// writes only its own frame range, so the result is bit-identical at any
// worker count.
package diffdet

import (
	"fmt"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/workpool"
)

// Options configures the detector.
type Options struct {
	// MSEThreshold discards a frame when its MSE against the clip middle
	// is below it. Zero means 8e-6, calibrated for the 64×64 renderer so
	// that a single extra object — even one mostly occluded by a
	// similar-shade neighbour — exceeds it while sensor noise stays
	// below, the same calibration the paper's 1e-4 encodes for normalized
	// 1080p pixels.
	MSEThreshold float64
	// ClipSize is c; zero means 30 (the paper's setting).
	ClipSize int
	// Procs bounds concurrent clip workers, following the engine-wide
	// Config.Procs convention: zero or negative means GOMAXPROCS (Phase
	// 1 sets it). Results are bit-identical for every value.
	Procs int
	// Pool is ignored: the clips always run on transient workers bounded
	// by Procs. The field remains only for the benchmark driver, which
	// still sets it.
	Pool *workpool.Pool
}

func (o Options) withDefaults() Options {
	if o.MSEThreshold == 0 {
		o.MSEThreshold = 8e-6
	}
	if o.ClipSize == 0 {
		o.ClipSize = 30
	}
	return o
}

// Result is the detector output.
type Result struct {
	// Retained lists retained frame indices in ascending order.
	Retained []int
	// RepOf maps every frame to its retained representative: RepOf[i] == i
	// for retained frames, otherwise the clip-middle frame whose score
	// distribution stands in for frame i (used by window aggregation,
	// Eq. 9).
	RepOf []int32
}

// NumFrames returns the total frame count covered.
func (r Result) NumFrames() int { return len(r.RepOf) }

// EachSegment calls visit, in frame order, for each maximal run of
// consecutive frames in [from, to) sharing one representative — the
// segments of Eq. 9 — without materializing them.
func (r Result) EachSegment(from, to int, visit func(Segment)) {
	for i := from; i < to; {
		rep := r.RepOf[i]
		j := i + 1
		for j < to && r.RepOf[j] == rep {
			j++
		}
		visit(Segment{Rep: int(rep), Size: j - i})
		i = j
	}
}

// Segments returns the segments of [from, to) as a slice.
func (r Result) Segments(from, to int) []Segment {
	var segs []Segment
	r.EachSegment(from, to, func(s Segment) { segs = append(segs, s) })
	return segs
}

// Segment is a run of frames represented by one retained frame.
type Segment struct {
	// Rep is the retained representative frame index.
	Rep int
	// Size is the number of frames in the run.
	Size int
}

// Run executes the difference detector over all frames of src, charging
// per-frame decode and MSE cost to the given phase.
func Run(src video.Source, opt Options, clock *simclock.Clock, cost simclock.CostModel, phase simclock.Phase) (Result, error) {
	return RunVisit(src, opt, clock, cost, phase, nil)
}

// RunVisit is Run with a visitor on the detector's one pass over the
// video: every frame is decoded exactly once, and the visitor sees it —
// with the decision whether it is retained — on the worker that decoded
// it, before its pixels are released. The pixels are the visitor's only
// for the duration of the call. newVisitor runs at most once per
// worker, so a visitor may own scratch (a model clone) that is not safe
// to share; what it computes must be a pure function of the frame for
// the result to stay identical at any worker count. A nil newVisitor
// visits nothing.
func RunVisit(src video.Source, opt Options, clock *simclock.Clock, cost simclock.CostModel, phase simclock.Phase, newVisitor func() func(f video.Frame, retained bool)) (Result, error) {
	opt = opt.withDefaults()
	if opt.ClipSize < 0 {
		return Result{}, fmt.Errorf("diffdet: negative clip size %d", opt.ClipSize)
	}
	n := src.NumFrames()
	if n == 0 {
		return Result{}, fmt.Errorf("diffdet: empty source")
	}
	if newVisitor == nil {
		newVisitor = func() func(video.Frame, bool) { return func(video.Frame, bool) {} }
	}
	res := Result{RepOf: make([]int32, n)}
	retained := make([]bool, n)

	// Each clip touches only its own frame range [lo, hi), so the clips
	// are independent workpool items; errors collect into per-clip slots
	// and the first (lowest-clip) one is reported, as in the serial loop.
	nClips := (n + opt.ClipSize - 1) / opt.ClipSize
	errs := workpool.MapWith(opt.Procs, nClips, newVisitor, func(visit func(video.Frame, bool), c int) error {
		lo := c * opt.ClipSize
		hi := min(lo+opt.ClipSize, n)
		mid := lo + (hi-lo)/2
		// The middle frame stays decoded for the whole clip; every other
		// frame is compared, visited and released before the next.
		midFrame := src.Render(mid)
		defer midFrame.Release()
		retained[mid] = true
		res.RepOf[mid] = int32(mid)
		visit(midFrame, true)
		for i := lo; i < hi; i++ {
			if i == mid {
				continue
			}
			f := src.Render(i)
			mse, err := f.MSE(midFrame)
			if err != nil {
				return err
			}
			keep := !(mse < opt.MSEThreshold) // a NaN error retains, as it always has
			if keep {
				retained[i] = true
				res.RepOf[i] = int32(i)
			} else {
				res.RepOf[i] = int32(mid)
			}
			visit(f, keep)
			f.Release()
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	clock.Charge(phase, cost.PassMS(n, false))
	for i, keep := range retained {
		if keep {
			res.Retained = append(res.Retained, i)
		}
	}
	return res, nil
}
