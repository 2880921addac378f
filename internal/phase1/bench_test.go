package phase1

import (
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// The fan-out benchmarks below run Phase 1's kept worker fan-outs at
// Procs 0, so `-cpu 1,N` times each serially and on N workers: the
// ratio of the -1 to the -N ns/op is the fan-out's 1→N speedup. They
// share one ingest of a 4,000-frame Archie video under the four-point
// grid (the oneshot_run configuration), built once per process. They
// loop over b.N, not b.Loop: under Go 1.24 a b.Loop benchmark's first
// -cpu entry is measured before GOMAXPROCS is set to that entry's
// value.

// benchIngest is the shared fixture: the video, its labelling plan and
// scores, and a trained proxy.
type benchIngest struct {
	src                     *video.Synthetic
	opt                     Options
	plan                    SamplePlan
	trainScores, holdScores []float64
	proxy                   *cmdn.Proxy
}

var (
	benchOnce    sync.Once
	benchFixture benchIngest
	benchErr     error

	// Sinks that keep the measured calls' results alive.
	benchSamples  []cmdn.Sample
	benchMixtures []uncertain.Mixture
)

func benchSetup(b *testing.B) benchIngest {
	b.Helper()
	benchOnce.Do(func() {
		spec, err := video.DatasetByName("Archie")
		if err != nil {
			benchErr = err
			return
		}
		src, err := spec.Build(4000)
		if err != nil {
			benchErr = err
			return
		}
		opt := Options{
			Proxy: cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40}}},
			Seed:  1,
		}
		plan, err := PlanSamples(src.NumFrames(), opt)
		if err != nil {
			benchErr = err
			return
		}
		udf := vision.CountUDF{Class: src.TargetClass()}
		fx := benchIngest{src: src, opt: opt, plan: plan,
			trainScores: Label(src, udf, plan.TrainIdx, opt, nil),
			holdScores:  Label(src, udf, plan.HoldIdx, opt, nil),
		}
		st, err := RunLabelled(src, opt, plan, fx.trainScores, fx.holdScores, nil)
		if err != nil {
			benchErr = err
			return
		}
		fx.proxy = st.Proxy
		benchFixture = fx
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchFixture
}

// BenchmarkClipPass times the difference detector's clip fan-out as
// ingest runs it: every frame decoded and diffed against its clip's
// middle frame, with the proxy's inference on each retained, unlabelled
// frame fused into the pass (AssembleState).
func BenchmarkClipPass(b *testing.B) {
	fx := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AssembleState(fx.src, fx.proxy, fx.opt, fx.plan, fx.trainScores, fx.holdScores, simclock.NewClock()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturizeSamples times Samples over the training plan: each
// labelled frame rendered and featurized for the grid train.
func BenchmarkFeaturizeSamples(b *testing.B) {
	fx := benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSamples = Samples(fx.src, fx.opt.Proxy.Arch, fx.plan.TrainIdx, fx.trainScores, fx.opt.Procs, nil)
	}
}

// BenchmarkInferMixturesNoDiff times FillRetainedMixtures under
// DisableDiff, where the detector pass predicts nothing and every
// unlabelled frame is decoded and predicted on the workers, into a
// table the caller allocates once.
func BenchmarkInferMixturesNoDiff(b *testing.B) {
	fx := benchSetup(b)
	opt := fx.opt
	opt.DisableDiff = true
	st, err := AssembleState(fx.src, fx.proxy, opt, fx.plan, fx.trainScores, fx.holdScores, nil)
	if err != nil {
		b.Fatal(err)
	}
	benchMixtures = make([]uncertain.Mixture, len(st.Diff.Retained))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.FillRetainedMixtures(benchMixtures)
	}
}
