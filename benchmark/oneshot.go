package main

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/xrand"
)

// harnessGrid is the 4-point CMDN grid the experiment harness trains on
// one CPU core; every workload that ingests through the public API uses
// it (EQL picks its own).
func harnessGrid() cmdn.Config {
	return cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40}}}
}

// synthetic builds the named catalog video's configuration under a
// benchmark name. The name is a constant of (workload, index): names key
// the shared label caches and the video's own random streams, so a name
// that changed between runs would change label counts.
func synthetic(dataset, name string, seedOffset uint64, frames int) (*video.Synthetic, error) {
	spec, err := video.DatasetByName(dataset)
	if err != nil {
		return nil, err
	}
	cfg := spec.Config
	cfg.Name = name
	cfg.Seed += seedOffset
	cfg.Frames = frames
	return video.NewSynthetic(cfg)
}

// oneshot is the oneshot_run workload: everest.Run over distinct
// videos, Phase 1 and Phase 2 in one call, the one workload with worker
// fan-out on (Procs=2). Phase 1 is nearly all of the wall clock.
type oneshot struct {
	o      options
	frames int
	n, p   int // videos in the pool (one op each per pass) and passes
	cfg    everest.Config

	udf    *oracleUDF
	srcs   []*video.Synthetic
	truths []*truth
	order  []int
}

func newOneshot(o options) *oneshot {
	// Three videos, each run once per pass. An op is about 1.2 s (half of
	// it the grid train, which does not shrink with the video), so a
	// fifteen-second window holds four passes.
	w := &oneshot{o: o, frames: 4000, n: 3, p: max(1, o.Seconds*4/15)}
	if o.Trace {
		w.n, w.p = 2, 1
	}
	if o.Tiny {
		w.frames, w.n, w.p = 640, 2, 1
	}
	w.cfg = everest.Config{K: 10, Threshold: 0.9, Proxy: harnessGrid(), Seed: 1, Procs: 2}
	if o.Tiny {
		w.cfg.Proxy.Epochs = 4
	}
	// The seed orders the fixed pool.
	w.order = xrand.New(o.Seed).Split("oneshot/order").Perm(w.n)
	return w
}

func (w *oneshot) procs() int { return w.cfg.Procs }

// epochs is the CMDN's epoch count per grid point (35 unless set).
func (w *oneshot) epochs() int {
	if w.cfg.Proxy.Epochs > 0 {
		return w.cfg.Proxy.Epochs
	}
	return 35
}

func (w *oneshot) passes() int       { return w.p }
func (w *oneshot) opsPerPass() int   { return w.n }
func (w *oneshot) opID(p, i int) int { return w.order[i] }

func (w *oneshot) video(tag string, j int) (*video.Synthetic, error) {
	return synthetic("Archie", fmt.Sprintf("oneshot-c0-%s%02d", tag, j), uint64(j), w.frames)
}

// setup generates the videos and their ground truth and runs two
// untimed warm-up ops on videos of their own.
func (w *oneshot) setup() error {
	w.udf = &oracleUDF{inner: vision.CountUDF{Class: video.ClassCar}}
	for j := 0; j < w.n; j++ {
		src, err := w.video("v", j)
		if err != nil {
			return err
		}
		w.srcs = append(w.srcs, src)
		w.truths = append(w.truths, newTruth(src, w.udf.inner))
	}
	for j := 0; j < 2; j++ {
		src, err := w.video("warm", 100+j)
		if err != nil {
			return err
		}
		if _, err := everest.Run(src, w.udf, w.cfg); err != nil {
			return err
		}
	}
	return nil
}

func (w *oneshot) teardown() {}

func (w *oneshot) oracleFrames() float64 { return float64(w.udf.frames.Load()) }

func (w *oneshot) run(p, i int, rec *recorder) opOut {
	j := w.order[i]
	w.udf.rec = rec
	res, err := everest.Run(traced(w.srcs[j], rec), w.udf, w.cfg)
	w.udf.rec = nil
	if err != nil {
		return opOut{Err: err}
	}
	a := answerOf(res, w.cfg, w.frames, w.truths[j])
	return opOut{Answers: []answer{a}, SimMS: a.SimMS}
}

// ladder replays each op as Phase 1 stage by stage, then the plan, then
// Execute, on one clock and one resident pool like engine.Run. The
// worker-pool probes re-run ingest and select at Procs 1 and 2.
func (w *oneshot) ladder(p int, rec *recorder) ([]opOut, map[string]float64, error) {
	m := make(map[string]float64)
	var c counters
	outs := make([]opOut, w.n)
	w.udf.rec = rec
	defer func() { w.udf.rec = nil }()
	var last *ingested
	for i := range outs {
		j := w.order[i]
		src := traced(w.srcs[j], rec)
		rec.setOp(1_000_000 + i)
		plan := planOf(w.cfg)
		pool := plan.WorkerPool()
		opt := plan.Ingest
		opt.Pool = pool
		clock := simclock.NewClock()

		probeDiffdet(rec, src, opt)
		root := rec.begin("driver", "ladder_op")
		in, err := ladderIngest(rec, src, w.udf, opt, clock)
		if err != nil {
			return nil, nil, err
		}
		_, out, err := ladderQuery(rec, w.cfg, engine.Binding{Src: src, UDF: w.udf, Artifact: in.art, Clock: clock, Pool: pool}, w.frames)
		rec.end(root)
		if err != nil {
			return nil, nil, err
		}
		probeRelation(rec, w.cfg, engine.Binding{Src: src, UDF: w.udf, Artifact: in.art}, pool)
		if pool != nil {
			pool.Close()
		}
		c.ops++
		c.ingest(in.art.Info, len(w.cfg.Proxy.Grid))
		c.query(out, plan, w.frames, w.udf)
		m["engine.ingest_ms"] += in.stagesMS / float64(w.n)
		m["nn.fit_us_per_sample"] += fitUSPerSample(in.trainMS, in.art.Info.TrainSamples, w.epochs(), len(w.cfg.Proxy.Grid)) / float64(w.n)
		outs[i] = opOut{SimMS: out.Clock.TotalMS(), Answers: []answer{replayed(out)}}
		last = in
	}
	rec.setOp(-1)
	w.udf.rec = nil
	c.flush(m)
	probeProxy(last.state.Proxy, w.srcs[w.order[w.n-1]], 512, m)
	w.probeWorkpool(m)
	return outs, m, nil
}

// probeWorkpool measures what the worker fan-out buys on this box: the
// same ingest, and the same Phase 2 run, at Procs 1 and at Procs 2.
func (w *oneshot) probeWorkpool(m map[string]float64) {
	src := w.srcs[w.order[0]]
	var ingest, sel [3]float64
	var art *engine.Artifact
	for _, procs := range []int{1, 2} {
		cfg := w.cfg
		cfg.Procs = procs
		plan := planOf(cfg)
		pool := plan.WorkerPool()
		opt := plan.Ingest
		opt.Pool = pool
		ingest[procs] = ms(elapsed(func() {
			art, _ = engine.Ingest(src, w.udf, opt, simclock.NewClock())
		}))
		sel[procs] = ms(elapsed(func() {
			_, _ = engine.Execute(plan, engine.Binding{Src: src, UDF: w.udf, Artifact: art, Pool: pool})
		}))
		if pool != nil {
			pool.Close()
		}
	}
	m["workpool.ingest_speedup_p2"] = ratio(ingest[1], ingest[2])
	m["workpool.select_speedup_p2"] = ratio(sel[1], sel[2])
}
