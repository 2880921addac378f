package main

import (
	"cmp"
	"context"
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/diffdet"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/workpool"
	"github.com/everest-project/everest/internal/xrand"
)

// The ladder replays an op stage by stage through the layers' exported
// functions, on the same inputs, with one span per stage. It has to
// compile a Config to an engine plan the way the public API does, which
// everest keeps unexported — planOf repeats that translation. The
// ladder's answer check (IDs, scores and simulated charges equal to the
// op's) is what keeps the copy honest: a default that drifts apart
// fails the traced run.
func planOf(cfg everest.Config) engine.Plan {
	cfg.Cost = cmp.Or(cfg.Cost, simclock.Default())
	return engine.Plan{
		K:         cfg.K,
		Threshold: cmp.Or(cfg.Threshold, 0.9),
		Window: engine.WindowSpec{
			Size: cfg.Window, Stride: cfg.Stride, SampleFrac: cmp.Or(cfg.WindowSampleFrac, 0.1),
		},
		BatchSize: cmp.Or(cfg.BatchSize, 8),
		Procs:     cfg.Procs,
		Seed:      cfg.Seed,
		Cost:      cfg.Cost,
		UseMux:    cfg.UseMux,
		Ingest: phase1.Options{
			SampleFrac:  cmp.Or(cfg.SampleFrac, 0.02),
			SampleCap:   cmp.Or(cfg.SampleCap, 30000),
			MinSamples:  cmp.Or(cfg.MinSamples, 600),
			HoldoutFrac: cmp.Or(cfg.HoldoutFrac, 0.1),
			Diff:        cfg.Diff,
			Proxy:       cfg.Proxy,
			Cost:        cfg.Cost,
			Seed:        cfg.Seed,
			Procs:       cfg.Procs,
		},
	}.Normalize()
}

// counters accumulates the per-layer counts the ladder reads off the
// layers' own results; flush turns them into per-op metrics.
type counters struct {
	ops, queries float64

	tuples, iterations, examined, pruned, cleaned, wanted float64
	labelMS, trainMS, populateMS, phase2MS, scanMS, simMS float64
	trainSamples, gridPoints, retained, frames            float64
	windows, windowQueries                                float64
}

// query adds one executed plan's Phase 2 counters and charges.
func (c *counters) query(out *engine.Outcome, p engine.Plan, frames int, udf vision.UDF) {
	c.phase2(out.Stats, out.Tuples, p.K, p.Window.Enabled())
	c.clock(out.Clock, frames, udf, p.Cost)
}

// phase2 adds one Top-K run's counters, whichever API reported them.
func (c *counters) phase2(st core.Stats, tuples, k int, window bool) {
	c.queries++
	c.tuples += float64(tuples)
	c.iterations += float64(st.Iterations)
	c.examined += float64(st.Examined)
	c.pruned += float64(st.Pruned)
	c.cleaned += float64(st.Cleaned)
	c.wanted += float64(k)
	if window {
		c.windows += float64(tuples)
		c.windowQueries++
	}
}

// clock decomposes one op's simulated charge the way Table 8 does.
func (c *counters) clock(clk *simclock.Clock, frames int, udf vision.UDF, cost simclock.CostModel) {
	c.labelMS += clk.PhaseMS(simclock.PhaseLabelSamples)
	c.trainMS += clk.PhaseMS(simclock.PhaseTrainCMDN)
	c.populateMS += clk.PhaseMS(simclock.PhasePopulateD0) + clk.PhaseMS(simclock.PhaseDiffDetect)
	c.phase2MS += clk.PhaseMS(simclock.PhaseSelect) + clk.PhaseMS(simclock.PhaseConfirm) +
		clk.PhaseMS(simclock.PhaseTopkProb) + clk.PhaseMS(simclock.PhaseRetryBackoff)
	c.simMS += clk.TotalMS()
	c.scanMS += float64(frames) * (udf.OracleCostMS(cost) + cost.DecodeMS)
}

// ingest adds one Phase 1 run's counts.
func (c *counters) ingest(info phase1.Info, grid int) {
	c.trainSamples += float64(info.TrainSamples)
	c.gridPoints += float64(grid)
	c.retained += float64(info.Retained)
	c.frames += float64(info.TotalFrames)
}

func (c *counters) flush(m map[string]float64) {
	m["core.tuples"] = ratio(c.tuples, c.queries)
	m["core.iterations"] = ratio(c.iterations, c.ops)
	m["core.examined"] = ratio(c.examined, c.ops)
	m["core.pruned"] = ratio(c.pruned, c.ops)
	m["core.cleaned"] = ratio(c.cleaned, c.ops)
	m["core.useful_clean_share"] = ratio(c.wanted, c.cleaned)
	m["windows.count"] = ratio(c.windows, c.windowQueries)
	m["phase1.train_samples"] = ratio(c.trainSamples, c.ops)
	m["cmdn.grid_points"] = ratio(c.gridPoints, c.ops)
	m["diffdet.retained_share"] = ratio(c.retained, c.frames)
	m["simclock.label_ms"] = ratio(c.labelMS, c.ops)
	m["simclock.train_ms"] = ratio(c.trainMS, c.ops)
	m["simclock.populate_ms"] = ratio(c.populateMS, c.ops)
	m["simclock.phase2_ms"] = ratio(c.phase2MS, c.ops)
	m["simclock.speedup_vs_scan"] = ratio(c.scanMS, c.simMS)
}

// replayed is a ladder answer: what sameAnswers compares with the op's.
func replayed(out *engine.Outcome) answer {
	return answer{IDs: out.IDs, Scores: out.Scores, SimMS: out.Clock.TotalMS()}
}

// ingested is what the ingest ladder leaves behind.
type ingested struct {
	art   *engine.Artifact
	state *phase1.State
	// stagesMS is the wall time of the ingest stages together, trainMS
	// of cmdn.Train alone.
	stagesMS, trainMS float64
}

// fitUSPerSample is the nn kernel's cost per (sample × epoch × model):
// a training stage's wall time spread over the fits it ran.
func fitUSPerSample(trainMS float64, samples, epochs, models int) float64 {
	return ratio(trainMS*1e3, float64(samples*epochs*models))
}

// ladderIngest is Phase 1 stage by stage — phase1.PlanSamples → Label →
// Samples → cmdn.Train → phase1.AssembleState (the difference detector
// runs inside it) → engine.Capture — composed exactly as phase1.Run and
// engine.Ingest compose them, so the artifact and the charges on clock
// are the program's own.
func ladderIngest(rec *recorder, src video.Source, udf vision.UDF, opt phase1.Options, clock *simclock.Clock) (*ingested, error) {
	var (
		sp                      phase1.SamplePlan
		trainScores, holdScores []float64
		err                     error
	)
	start := time.Now()
	rec.timed("phase1", "plan", func() { sp, err = phase1.PlanSamples(src.NumFrames(), opt) })
	if err != nil {
		return nil, err
	}
	rec.timed("phase1", "label", func() {
		trainScores = phase1.Label(src, udf, sp.TrainIdx, opt, clock)
		holdScores = phase1.Label(src, udf, sp.HoldIdx, opt, clock)
	})
	in, err := ladderTrain(rec, src, opt, sp, trainScores, holdScores, clock)
	if err != nil {
		return nil, err
	}
	rec.timed("engine", "capture", func() { in.art = engine.Capture(in.state, udf, opt.Cost, clock) })
	in.stagesMS = ms(time.Since(start))
	return in, nil
}

// ladderTrain is phase1.RunLabelled stage by stage: featurize the
// labelled samples, train the grid, assemble the state.
func ladderTrain(rec *recorder, src video.Source, opt phase1.Options, sp phase1.SamplePlan, trainScores, holdScores []float64, clock *simclock.Clock) (*ingested, error) {
	var (
		train, hold []cmdn.Sample
		proxy       *cmdn.Proxy
		in          ingested
		err         error
	)
	pc := opt.Proxy
	pc.FrameW, pc.FrameH = src.Resolution()
	if pc.Seed == 0 {
		pc.Seed = xrand.New(opt.Seed).Split("everest/phase1").Split("cmdn").Uint64()
	}
	if pc.Procs == 0 {
		pc.Procs = opt.Procs
	}
	rec.timed("phase1", "samples", func() {
		train = phase1.Samples(src, pc.Arch, sp.TrainIdx, trainScores, opt.Procs, opt.Pool)
		hold = phase1.Samples(src, pc.Arch, sp.HoldIdx, holdScores, opt.Procs, opt.Pool)
	})
	in.trainMS = ms(rec.timed("cmdn", "train", func() { proxy, _, err = cmdn.Train(train, hold, pc, clock, opt.Cost) }))
	if err != nil {
		return nil, err
	}
	rec.timed("phase1", "assemble", func() {
		in.state, err = phase1.AssembleState(src, proxy, opt, sp, trainScores, holdScores, clock)
	})
	if err != nil {
		return nil, err
	}
	return &in, nil
}

// probeDiffdet times the difference detector on its own. AssembleState
// runs it inside itself, so the ladder cannot give it a stage; this
// stand-alone run on a scratch clock does, and phase1.assemble_ms is
// AssembleState's self time less this.
func probeDiffdet(rec *recorder, src video.Source, opt phase1.Options) {
	dopt := opt.Diff
	if dopt.Procs == 0 {
		dopt.Procs = opt.Procs
	}
	if dopt.Pool == nil {
		dopt.Pool = opt.Pool
	}
	rec.timed("diffdet", "run", func() {
		_, _ = diffdet.Run(src, dopt, nil, opt.Cost, simclock.PhasePopulateD0)
	})
}

// probeProxy times the proxy's kernels on n pre-rendered frames:
// feature extraction alone, the network alone, and the two together —
// the per-frame costs that a faster nn or cmdn kernel would move.
func probeProxy(proxy *cmdn.Proxy, src video.Source, n int, m map[string]float64) {
	n = min(n, src.NumFrames())
	frames := make([]video.Frame, n)
	feats := make([][]float64, n)
	for i := range frames {
		frames[i] = src.Render(i * (src.NumFrames() / n))
	}
	t := time.Now()
	for i, f := range frames {
		feats[i] = cmdn.ExtractFeatures(f)
	}
	m["cmdn.features_us_per_frame"] = us(time.Since(t)) / float64(n)
	p := proxy.CloneForInference()
	t = time.Now()
	for _, x := range feats {
		p.Predict(x)
	}
	m["nn.predict_us"] = us(time.Since(t)) / float64(n)
	t = time.Now()
	for _, f := range frames {
		p.PredictFrame(f)
	}
	m["cmdn.predict_us_per_frame"] = us(time.Since(t)) / float64(n)
}

// ladderQuery is one plan stage by stage: engine.NewPlan, the relation
// build on its own (a probe: Execute builds the relation again, so the
// probe is recorded outside the op's root span), then engine.Execute.
func ladderQuery(rec *recorder, cfg everest.Config, b engine.Binding, frames int) (engine.Plan, *engine.Outcome, error) {
	var (
		plan engine.Plan
		out  *engine.Outcome
		err  error
	)
	rec.timed("engine", "plan", func() {
		if plan, err = engine.NewPlan(planOf(cfg)); err == nil {
			err = plan.ValidateFor(frames)
		}
	})
	if err != nil {
		return plan, nil, err
	}
	b.Ctx = context.Background()
	rec.timed("engine", "execute", func() { out, err = engine.Execute(plan, b) })
	return plan, out, err
}

// probeRelation builds the query's relation on its own. Call it before
// the query's ladderQuery, while the overlay is still in the state
// Execute's own build will see.
func probeRelation(rec *recorder, cfg everest.Config, b engine.Binding, pool *workpool.Pool) {
	plan := planOf(cfg)
	qopt := b.UDF.Quantize()
	if plan.Window.Enabled() {
		rec.timed("windows", "relation", func() {
			_, _ = b.Artifact.WindowRelation(plan.Window, qopt, b.Labels, plan.Procs, pool)
		})
		return
	}
	rec.timed("engine", "relation", func() { _, _ = b.Artifact.FrameRelation(qopt, b.Labels) })
}
