// Package phase1 implements Everest's first phase (§3.2): sample frames,
// label them with the oracle UDF, train the CMDN grid and select by
// holdout NLL and run the difference detector. The uncertain relation D0
// is built from the resulting State by engine.Capture and the Artifact's
// relation builders. Shared by the Everest engine and by the baselines
// that reuse parts of the pipeline (CMDN-only, Select-and-Topk).
//
// Phase 1 runs in one of two orders, and both produce the same State and
// the same charges:
//
//   - Train first (Run, RunLabelled, AssembleState): the labelled
//     samples are decoded and featurized (Samples), the proxy trains
//     (TrainProxy), and then the detector's pass decodes every frame and
//     predicts the retained ones as it goes. The samples are decoded
//     twice, but no frame's features outlive its decode. The batch
//     entrypoints take this order: a 4,000-frame video would otherwise
//     buffer ≈ 3.1 MB of features to save 700 of 4,700 decodes.
//   - Pass first (RunPass, Pass.Samples, Pass.Assemble): the detector's
//     pass comes first and keeps the features of every planned or
//     retained frame in a caller-owned block; the proxy trains on views
//     of its rows and the retained frames are predicted from theirs.
//     Each frame is decoded once. The streaming ingestor takes this
//     order, reusing one block across its segment closes.
package phase1

import (
	"fmt"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/uncertain"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/workpool"
	"github.com/everest-project/everest/internal/xrand"
)

// Options configures Phase 1.
type Options struct {
	// SampleFrac is the labelled-sample fraction; zero means 0.02 (the
	// paper's 0.5% is tied to multi-million-frame videos; see DESIGN.md).
	SampleFrac float64
	// SampleCap bounds absolute training samples; zero means 30000.
	SampleCap int
	// MinSamples floors training samples; zero means 600.
	MinSamples int
	// HoldoutFrac sizes the holdout set relative to training; zero means
	// 0.1.
	HoldoutFrac float64
	// Diff configures the difference detector.
	Diff diffdet.Options
	// DisableDiff retains every frame (ablation A4).
	DisableDiff bool
	// Proxy configures CMDN training.
	Proxy cmdn.Config
	// Cost is the simulated cost model; zero means simclock.Default()
	// (simclock.OrDefault).
	Cost simclock.CostModel
	// Seed drives sampling and training.
	Seed uint64
	// Procs bounds the workers of every fan-out (Samples, the grid, the
	// clip pass or RunPass's decode, FillRetainedMixtures and Pass.Assemble's
	// predictions), overriding Proxy.Procs and Diff.Procs; ≤ 0 means
	// GOMAXPROCS. Never affects results.
	Procs int
	// Pool is ignored: every fan-out runs on transient workers bounded
	// by Procs. The field remains only for the benchmark driver, which
	// still sets it.
	Pool *workpool.Pool
}

func (o Options) withDefaults() Options {
	if o.SampleFrac == 0 {
		o.SampleFrac = 0.02
	}
	if o.SampleCap == 0 {
		o.SampleCap = 30000
	}
	if o.MinSamples == 0 {
		o.MinSamples = 600
	}
	if o.HoldoutFrac == 0 {
		o.HoldoutFrac = 0.1
	}
	o.Cost = simclock.OrDefault(o.Cost)
	o.Diff.Procs = o.Procs
	return o
}

// Info reports Phase 1 statistics.
type Info struct {
	// TotalFrames is the video length.
	TotalFrames int
	// TrainSamples and HoldoutSamples are labelled sample counts.
	TrainSamples, HoldoutSamples int
	// Retained counts frames surviving the difference detector.
	Retained int
	// Hyper is the selected grid point; HoldoutNLL its criterion value.
	Hyper      cmdn.Hyper
	HoldoutNLL float64
}

// State carries Phase 1 outputs into Phase 2.
type State struct {
	// Src is the video.
	Src video.Source
	// Proxy is the selected CMDN.
	Proxy *cmdn.Proxy
	// Diff is the difference-detector result.
	Diff diffdet.Result
	// Labeled maps sampled frame → exact oracle score.
	Labeled map[int]float64
	// Info is the statistics summary.
	Info Info

	// mixes holds, per frame, the proxy's score mixture when the
	// difference detector's pass already computed it (retained frames
	// without a Phase 1 label); nil elsewhere, and nil as a whole under
	// DisableDiff.
	mixes []uncertain.Mixture
	procs int
}

// SamplePlan is the deterministic labelling plan for a video of a given
// length: which frames Phase 1 labels for training and holdout. It is a
// pure function of (n, Options.Seed and the sampling knobs) — see
// PlanSamples — so streaming ingestion can compute it the moment a
// segment's span is fixed and label eagerly as chunks arrive, knowing a
// batch ingest of the same span will label exactly the same frames.
type SamplePlan struct {
	// TrainIdx and HoldIdx are frame indices, in labelling order.
	TrainIdx, HoldIdx []int
}

// SampleCounts sizes the labelling plan of an n-frame video: how many
// frames Phase 1 labels for training and for holdout — sample-fraction
// sizing with floor and cap, the holdout fraction, and the tiny-video
// fallback. It is the arithmetic PlanSamples draws with, exported so
// cost predictions price the label bill the engine will actually pay.
func SampleCounts(n int, opt Options) (train, hold int, err error) {
	opt = opt.withDefaults()
	if err := opt.Cost.Validate(); err != nil {
		return 0, 0, fmt.Errorf("phase1: %w", err)
	}
	train = int(opt.SampleFrac * float64(n))
	if train < opt.MinSamples {
		train = opt.MinSamples
	}
	if train > opt.SampleCap {
		train = opt.SampleCap
	}
	hold = int(opt.HoldoutFrac * float64(train))
	if hold < 100 {
		hold = 100
	}
	if train+hold > n {
		// Tiny videos: label at most half the video, split 80/20.
		total := n / 2
		if total < 5 {
			return 0, 0, fmt.Errorf("phase1: video of %d frames is too short", n)
		}
		train = total * 4 / 5
		hold = total - train
	}
	return train, hold, nil
}

// PlanSamples computes the labelling plan Run uses for an n-frame
// video: SampleCounts' sizing and the seed-derived draw and
// train/holdout split.
func PlanSamples(n int, opt Options) (SamplePlan, error) {
	trainN, holdN, err := SampleCounts(n, opt)
	if err != nil {
		return SamplePlan{}, err
	}
	rng := xrand.New(opt.Seed).Split("everest/phase1")

	all := rng.Split("sample").SampleK(n, trainN+holdN)
	perm := rng.Split("split").Perm(len(all))
	trainIdx := make([]int, 0, trainN)
	holdIdx := make([]int, 0, holdN)
	for i, p := range perm {
		if i < trainN {
			trainIdx = append(trainIdx, all[p])
		} else {
			holdIdx = append(holdIdx, all[p])
		}
	}
	return SamplePlan{TrainIdx: trainIdx, HoldIdx: holdIdx}, nil
}

// Label scores the given frames with the oracle and charges the
// per-sample labelling cost (oracle plus decode) to clock — the one
// labelling path, shared by Run and by the streaming ingestor, which
// labels a segment's plan chunk by chunk as frames arrive. The total
// charge depends only on how many frames are labelled, not on how the
// calls are batched.
func Label(src video.Source, udf vision.UDF, ids []int, opt Options, clock *simclock.Clock) []float64 {
	if len(ids) == 0 {
		return nil
	}
	opt = opt.withDefaults()
	scores := udf.Score(src, ids)
	clock.Charge(simclock.PhaseLabelSamples, opt.Cost.LabelMS(len(ids), udf.OracleCostMS(opt.Cost)))
	return scores
}

// Samples renders and featurizes the given labelled frames into CMDN
// training samples, fanned out over the configured workers with
// index-ordered emission — a pure function of (src, idx, scores). The
// samples' features are adjacent rows of one block, each capped at its
// own end as a Pass's rows are. No cost is charged: labelling cost was
// charged where the scores were obtained, and feature extraction rides
// the training charge. The Arch argument is unused: the feature pyramid
// is the one backbone. The pool argument is ignored too; it remains for
// the benchmark driver.
func Samples(src video.Source, _ cmdn.Arch, idx []int, scores []float64, procs int, _ *workpool.Pool) []cmdn.Sample {
	out := make([]cmdn.Sample, len(idx))
	workpool.Stage("phase1", "featurize", func() {
		w, h := src.Resolution()
		width := cmdn.FeatureSize(w, h)
		block := make([]float64, len(idx)*width)
		workpool.ForEach(procs, len(idx), func(_, k int) {
			f := src.Render(idx[k])
			row := block[k*width : k*width : (k+1)*width]
			out[k] = cmdn.Sample{Frame: idx[k], X: cmdn.AppendFeatures(row, f), Y: scores[k]}
			f.Release()
		})
	})
	return out
}

// Run executes Phase 1 in the train-first order: plan the samples, label
// them, train the CMDN grid, run the difference detector and assemble
// the State. It is the composition PlanSamples → Label → RunLabelled;
// the streaming ingestor composes PlanSamples → Label → RunPass →
// TrainProxy (or cmdn.Refresh) → Pass.Assemble instead, interleaving
// the labelling with chunk arrival, and produces bit-identical output.
func Run(src video.Source, udf vision.UDF, opt Options, clock *simclock.Clock) (*State, error) {
	opt = opt.withDefaults()
	plan, err := PlanSamples(src.NumFrames(), opt)
	if err != nil {
		return nil, err
	}
	var trainScores, holdScores []float64
	workpool.Stage("phase1", "label", func() {
		trainScores = Label(src, udf, plan.TrainIdx, opt, clock)
		holdScores = Label(src, udf, plan.HoldIdx, opt, clock)
	})
	return RunLabelled(src, opt, plan, trainScores, holdScores, clock)
}

// RunLabelled is Run with the labelling already done: plan names the
// labelled frames (from PlanSamples over the same Options) and
// trainScores/holdScores their oracle scores, charged by the caller as
// they were obtained. Given the plan and scores Run would produce, it
// returns a bit-identical State with bit-identical remaining charges.
func RunLabelled(src video.Source, opt Options, plan SamplePlan, trainScores, holdScores []float64, clock *simclock.Clock) (*State, error) {
	opt = opt.withDefaults()
	train := Samples(src, opt.Proxy.Arch, plan.TrainIdx, trainScores, opt.Procs, nil)
	hold := Samples(src, opt.Proxy.Arch, plan.HoldIdx, holdScores, opt.Procs, nil)
	var proxy *cmdn.Proxy
	var err error
	workpool.Stage("phase1", "grid-fit", func() { proxy, err = TrainProxy(src, opt, train, hold, clock) })
	if err != nil {
		return nil, err
	}
	return AssembleState(src, proxy, opt, plan, trainScores, holdScores, clock)
}

// TrainProxy runs the full CMDN grid specialize over featurized samples
// of src — the one place Phase 1 derives the proxy configuration: src's
// resolution, opt.Procs workers and, unless opt.Proxy sets one, the seed
// drawn from opt.Seed. Training cost is charged to clock.
func TrainProxy(src video.Source, opt Options, train, hold []cmdn.Sample, clock *simclock.Clock) (*cmdn.Proxy, error) {
	proxyCfg := opt.Proxy
	proxyCfg.FrameW, proxyCfg.FrameH = src.Resolution()
	if proxyCfg.Seed == 0 {
		// Derived exactly as in the pre-split Run: the "cmdn" child of the
		// phase-1 stream (Split never advances its parent, so deriving it
		// here is bit-identical to deriving it alongside the sample draw).
		proxyCfg.Seed = xrand.New(opt.Seed).Split("everest/phase1").Split("cmdn").Uint64()
	}
	proxyCfg.Procs = opt.Procs
	proxy, _, err := cmdn.Train(train, hold, proxyCfg, clock, opt.Cost)
	return proxy, err
}

// AssembleState runs the difference detector and packages a trained
// proxy with its labelled samples into the State Phase 2 consumes — the
// tail of the train-first order. Pass.Assemble is its pass-first twin.
//
// The detector's pass is the one decode of every frame, so proxy
// inference rides it: each retained frame without a Phase 1 label is
// predicted while its pixels are decoded (on per-worker inference
// clones, whose predictions are bit-identical to the proxy's) and the
// mixture kept in the State for FillRetainedMixtures to serve. Nothing
// is charged for it here; Capture charges the inference it collects.
func AssembleState(src video.Source, proxy *cmdn.Proxy, opt Options, plan SamplePlan, trainScores, holdScores []float64, clock *simclock.Clock) (*State, error) {
	opt = opt.withDefaults()
	n := src.NumFrames()
	labeled := labeledOf(plan, trainScores, holdScores)
	if opt.DisableDiff {
		return newState(src, proxy, plan, keepAll(n, opt, clock), labeled, nil, opt.Procs), nil
	}
	mixes := make([]uncertain.Mixture, n)
	var diff diffdet.Result
	var err error
	workpool.Stage("phase1", "detector-pass", func() {
		diff, err = diffdet.RunVisit(src, opt.Diff, clock, opt.Cost, simclock.PhasePopulateD0, func() func(video.Frame, bool) {
			p := proxy.CloneForInference()
			return func(f video.Frame, retained bool) {
				if _, exact := labeled[f.Index]; retained && !exact {
					mixes[f.Index] = p.PredictFrame(f)
				}
			}
		})
	})
	if err != nil {
		return nil, err
	}
	return newState(src, proxy, plan, diff, labeled, mixes, opt.Procs), nil
}

// labeledOf maps every planned frame to its oracle score.
func labeledOf(plan SamplePlan, trainScores, holdScores []float64) map[int]float64 {
	labeled := make(map[int]float64, len(plan.TrainIdx)+len(plan.HoldIdx))
	for k, i := range plan.TrainIdx {
		labeled[i] = trainScores[k]
	}
	for k, i := range plan.HoldIdx {
		labeled[i] = holdScores[k]
	}
	return labeled
}

// keepAll is the DisableDiff detector result: every frame retained,
// each its own representative, and its charge: one decode per frame.
func keepAll(n int, opt Options, clock *simclock.Clock) diffdet.Result {
	clock.Charge(simclock.PhasePopulateD0, opt.Cost.PassMS(n, true))
	rep := make([]int32, n)
	retained := make([]int, n)
	for i := range rep {
		rep[i] = int32(i)
		retained[i] = i
	}
	return diffdet.Result{Retained: retained, RepOf: rep}
}

// newState packages Phase 1's outputs; mixes holds the mixtures the
// pass already predicted (nil where it did not).
func newState(src video.Source, proxy *cmdn.Proxy, plan SamplePlan, diff diffdet.Result, labeled map[int]float64, mixes []uncertain.Mixture, procs int) *State {
	return &State{
		Src:     src,
		Proxy:   proxy,
		Diff:    diff,
		Labeled: labeled,
		mixes:   mixes,
		procs:   procs,
		Info: Info{
			TotalFrames:    src.NumFrames(),
			TrainSamples:   len(plan.TrainIdx),
			HoldoutSamples: len(plan.HoldIdx),
			Retained:       len(diff.Retained),
			Hyper:          proxy.Hyper(),
			HoldoutNLL:     proxy.HoldoutNLL(),
		},
	}
}

// FillRetainedMixtures writes into mixes, which is parallel to
// Diff.Retained, the proxy's score mixture of every retained frame
// without an exact Phase 1 label, and leaves the labelled frames'
// entries as they are. A mixture the detector pass predicted is served
// from the pass; every other one (all of them under DisableDiff) is
// decoded and predicted on the configured workers, identical to the
// proxy's PredictFrame of the decoded frame. It returns how many
// mixtures it wrote: the inference volume a caller charges. No cost is
// charged here; charging happens where inference volume is decided.
func (s *State) FillRetainedMixtures(mixes []uncertain.Mixture) int {
	var todo []int // positions in Retained the pass did not predict
	n := 0
	for k, f := range s.Diff.Retained {
		if _, exact := s.Labeled[f]; exact {
			continue
		}
		n++
		if f < len(s.mixes) && s.mixes[f] != nil {
			mixes[k] = s.mixes[f]
		} else {
			todo = append(todo, k)
		}
	}
	if len(todo) > 0 {
		clones := make([]*cmdn.Proxy, workpool.Procs(s.procs))
		workpool.ForEach(len(clones), len(todo), func(w, j int) {
			if clones[w] == nil {
				clones[w] = s.Proxy.CloneForInference()
			}
			k := todo[j]
			f := s.Src.Render(s.Diff.Retained[k])
			mixes[k] = clones[w].PredictFrame(f)
			f.Release()
		})
	}
	return n
}

// ClampLevel clips a level into the quantization bounds.
func ClampLevel(lvl int, qopt uncertain.QuantizeOptions) int {
	if lvl < qopt.MinLevel {
		return qopt.MinLevel
	}
	if lvl > qopt.MaxLevel {
		return qopt.MaxLevel
	}
	return lvl
}
