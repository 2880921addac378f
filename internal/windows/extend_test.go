package windows

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/uncertain"
)

// mixedScore is a scoreOf with both exact and mixture frames,
// deterministic in the representative index.
func mixedScore(rep int) FrameScore {
	if rep%5 == 0 {
		return FrameScore{IsExact: true, Mean: float64(rep % 11)}
	}
	return mixScore(uncertain.Mixture{
		{Weight: 0.6, Mean: float64(rep%9) + 1, Sigma: 1.2},
		{Weight: 0.4, Mean: float64(rep%13) / 2, Sigma: 0.7},
	})
}

// TestBuildRelationReportsLowestFailingWindow: a frame whose mixture
// fails quantization fails every window that reads it, and
// BuildRelation reports the lowest of them, for tumbling and sliding
// windows alike.
func TestBuildRelationReportsLowestFailingWindow(t *testing.T) {
	bad := func(rep int) FrameScore {
		if rep == 40 {
			return mixScore(uncertain.Mixture{{Weight: 1, Mean: 1, Sigma: math.NaN()}})
		}
		return mixedScore(rep)
	}
	for _, c := range []struct {
		opt  Options
		want string
	}{
		{Options{Size: 10, Stride: 10, Step: 0.5}, "windows: window 4: "},
		{Options{Size: 10, Stride: 1, Step: 0.5}, "windows: window 31: "},
	} {
		rel, err := BuildRelation(bad, flatDiff(300), c.opt)
		if err == nil || rel != nil {
			t.Fatalf("stride %d: NaN sigma gave relation of %d, err %v", c.opt.Stride, len(rel), err)
		}
		if !strings.HasPrefix(err.Error(), c.want) {
			t.Fatalf("stride %d: error %q, want prefix %q", c.opt.Stride, err, c.want)
		}
	}
}

// TestExtendAndReaggregateMatchBuildRelation: extending a relation built
// over a prefix of the frames, lengthened over the rest, gives
// BuildRelation's relation over all of them — the prefix's tuples kept,
// not rebuilt — and reports the new windows that fail; a relation of
// another length is an error; re-aggregating some windows under another
// scoreOf gives them exactly BuildRelation's distributions under it,
// with the lowest failing window's error.
func TestExtendAndReaggregateMatchBuildRelation(t *testing.T) {
	bad := func(rep int) FrameScore {
		if rep == 140 || rep == 350 {
			return mixScore(uncertain.Mixture{{Weight: 1, Mean: 1, Sigma: math.NaN()}})
		}
		return mixedScore(rep)
	}
	for _, opt := range []Options{{Size: 30, Stride: 30, Step: 0.5}, {Size: 40, Stride: 15, Step: 0.5, MaxLevel: 12}} {
		short, err := BuildRelation(mixedScore, segDiff(200, 7), opt)
		if err != nil {
			t.Fatal(err)
		}
		long := segDiff(500, 7)
		kept := slices.Clone(short)
		n := NumSlidingWindows(long.NumFrames(), opt.Size, opt.Stride)
		if _, err := Extend(short, len(short), bad, long, opt); err == nil {
			t.Fatalf("%+v: Extend of a relation of %d of %d windows succeeded", opt, len(short), n)
		}
		ext := append(short, make(uncertain.Relation, n-len(short))...)
		failed, err := Extend(ext, len(short), bad, long, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ext[:len(short)], kept) || &ext[0].Dist.P[0] != &short[0].Dist.P[0] {
			t.Fatal("Extend wrote into the prefix or rebuilt it")
		}
		var wantFailed []int
		for w := len(short); w < len(ext); w++ {
			// A bad representative stands for itself and the six frames
			// after it, and no window of these shapes starts among them.
			lo := w * opt.Stride
			if (lo <= 140 && 140 < lo+opt.Size) || (lo <= 350 && 350 < lo+opt.Size) {
				wantFailed = append(wantFailed, w)
			}
		}
		if !reflect.DeepEqual(failed, wantFailed) {
			t.Fatalf("%+v: Extend reports failed windows %v, want %v", opt, failed, wantFailed)
		}
		// Re-aggregating the failed windows under a clean scoreOf heals
		// the relation into BuildRelation's.
		want, err := BuildRelation(mixedScore, long, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := Reaggregate(ext, failed, mixedScore, long, opt); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ext, want) {
			t.Fatalf("%+v: extended and healed relation differs from BuildRelation's", opt)
		}
		// Under the failing scoreOf the error is BuildRelation's.
		all := make([]int, len(ext))
		for i := range all {
			all[i] = i
		}
		_, wantErr := BuildRelation(bad, long, opt)
		if err := Reaggregate(append(uncertain.Relation(nil), ext...), all, bad, long, opt); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
			t.Fatalf("%+v: Reaggregate error %v, BuildRelation's %v", opt, err, wantErr)
		}
	}
}
