package phase1

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestStagedMatchesRun: composing the exported stages by hand —
// PlanSamples, chunked Label calls, RunLabelled — produces a State and
// clock bit-identical to the one-shot Run. This is the invariant the
// streaming ingestor's eager labelling rests on.
func TestStagedMatchesRun(t *testing.T) {
	src := testSource(t, 6000)
	udf := vision.CountUDF{Class: video.ClassCar}
	opt := testOpts()

	batchClock := simclock.NewClock()
	batch, err := Run(src, udf, opt, batchClock)
	if err != nil {
		t.Fatal(err)
	}

	stagedClock := simclock.NewClock()
	plan, err := PlanSamples(src.NumFrames(), opt)
	if err != nil {
		t.Fatal(err)
	}
	// Label the plan in uneven chunks to mimic chunk-granular streaming.
	chunked := func(ids []int) []float64 {
		out := make([]float64, 0, len(ids))
		for lo := 0; lo < len(ids); {
			hi := lo + 1 + lo%7
			if hi > len(ids) {
				hi = len(ids)
			}
			out = append(out, Label(src, udf, ids[lo:hi], opt, stagedClock)...)
			lo = hi
		}
		return out
	}
	staged, err := RunLabelled(src, opt, plan, chunked(plan.TrainIdx), chunked(plan.HoldIdx), stagedClock)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(batch.Info, staged.Info) {
		t.Fatalf("Info diverged:\n batch  %+v\n staged %+v", batch.Info, staged.Info)
	}
	if !reflect.DeepEqual(batch.Labeled, staged.Labeled) {
		t.Fatal("labelled maps diverged")
	}
	if !reflect.DeepEqual(batch.Diff, staged.Diff) {
		t.Fatal("difference-detector results diverged")
	}
	if !reflect.DeepEqual(batchClock.Breakdown(), stagedClock.Breakdown()) {
		t.Fatalf("charges diverged:\n batch  %v\n staged %v", batchClock.Breakdown(), stagedClock.Breakdown())
	}
	// Proxies must predict identically, not just score identically.
	for _, i := range []int{0, 17, 2999, 5999} {
		f := src.Render(i)
		b, s := batch.Proxy.PredictFrame(f), staged.Proxy.PredictFrame(f)
		f.Release()
		if !reflect.DeepEqual(b, s) {
			t.Fatalf("proxy mixtures diverged at frame %d", i)
		}
	}
}

// TestPassFirstMatchesRun: the pass-first order — RunPass, TrainProxy on
// views of its rows, Pass.Assemble — produces a State, mixtures and
// charges (to the bit) identical to Run's, with and
// without the difference detector, at any worker count, and in a reused
// block whose rows a previous pass over other footage left dirty.
func TestPassFirstMatchesRun(t *testing.T) {
	src := testSource(t, 2000)
	udf := vision.CountUDF{Class: video.ClassCar}
	for _, disable := range []bool{false, true} {
		for _, procs := range []int{1, 3} {
			opt := testOpts()
			opt.DisableDiff, opt.Procs = disable, procs

			runClock := simclock.NewClock()
			want, err := Run(src, udf, opt, runClock)
			if err != nil {
				t.Fatal(err)
			}
			wantMixes := make([]uncertain.Mixture, len(want.Diff.Retained))
			wantN := want.FillRetainedMixtures(wantMixes)

			// Dirty a block with another plan's pass over the same frames.
			other := opt
			other.Seed++
			otherPlan, err := PlanSamples(src.NumFrames(), other)
			if err != nil {
				t.Fatal(err)
			}
			dirty, err := RunPass(src, other, otherPlan, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			clock := simclock.NewClock()
			plan, err := PlanSamples(src.NumFrames(), opt)
			if err != nil {
				t.Fatal(err)
			}
			trainScores := Label(src, udf, plan.TrainIdx, opt, clock)
			holdScores := Label(src, udf, plan.HoldIdx, opt, clock)
			pass, err := RunPass(src, opt, plan, dirty.Block(), clock)
			if err != nil {
				t.Fatal(err)
			}
			if &pass.Block()[0] != &dirty.Block()[0] {
				t.Fatal("RunPass did not reuse a block large enough")
			}
			proxy, err := TrainProxy(src, opt, pass.Samples(plan.TrainIdx, trainScores), pass.Samples(plan.HoldIdx, holdScores), clock)
			if err != nil {
				t.Fatal(err)
			}
			got := pass.Assemble(proxy, plan, trainScores, holdScores)
			gotMixes := make([]uncertain.Mixture, len(got.Diff.Retained))
			gotN := got.FillRetainedMixtures(gotMixes)

			name := fmt.Sprintf("disable-diff=%v procs=%d", disable, procs)
			if !reflect.DeepEqual(want.Info, got.Info) || !reflect.DeepEqual(want.Labeled, got.Labeled) || !reflect.DeepEqual(want.Diff, got.Diff) {
				t.Fatalf("%s: state diverged from Run's", name)
			}
			if wantN != gotN || !reflect.DeepEqual(wantMixes, gotMixes) {
				t.Fatalf("%s: retained mixtures diverged from Run's", name)
			}
			if runClock.TotalMS() != clock.TotalMS() || !reflect.DeepEqual(runClock.Breakdown(), clock.Breakdown()) {
				t.Fatalf("%s: charges diverged:\n Run        %v\n pass first %v", name, runClock.Breakdown(), clock.Breakdown())
			}
		}
	}
}
