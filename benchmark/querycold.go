package main

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// indexed is one prebuilt (video, UDF, index) triple with its ground
// truth.
type indexed struct {
	src   *video.Synthetic
	udf   *oracleUDF
	ix    *everest.Index
	truth *truth
}

// buildIndexed generates a catalog-configured video and ingests it.
func buildIndexed(dataset, name string, seedOffset uint64, frames int, cfg everest.Config) (*indexed, error) {
	src, err := synthetic(dataset, name, seedOffset, frames)
	if err != nil {
		return nil, err
	}
	v := &indexed{src: src, udf: &oracleUDF{inner: vision.CountUDF{Class: src.TargetClass()}}}
	v.truth = newTruth(src, v.udf.inner)
	if v.ix, err = everest.BuildIndex(src, v.udf, cfg); err != nil {
		return nil, err
	}
	return v, nil
}

// queryShapes is the pool every Phase-2 workload draws from: per video
// 12 frame queries (K × thres) and 6 window queries (K × shape), 2:1,
// so p50 and p90 both sit inside the frame-query mode.
func queryShapes(seed uint64, procs int) []everest.Config {
	var cfgs []everest.Config
	for _, k := range []int{5, 10, 20, 50} {
		for _, th := range []float64{0.9, 0.95, 0.99} {
			cfgs = append(cfgs, everest.Config{K: k, Threshold: th, Seed: seed, Procs: procs})
		}
	}
	for _, k := range []int{5, 10} {
		for _, ws := range [][2]int{{30, 0}, {60, 0}, {30, 15}} {
			cfgs = append(cfgs, everest.Config{K: k, Threshold: 0.9, Window: ws[0], Stride: ws[1], Seed: seed, Procs: procs})
		}
	}
	return cfgs
}

// queryCold is the query_cold workload: Index.Query with no session and
// no label cache over two prebuilt indexes whose difference detectors
// keep very different shares of the frames. Phase 2 does all the work;
// labelstore, oraclemux and durable do none.
type queryCold struct {
	o      options
	frames int
	rounds int // rounds over the pool in one pass
	p      int
	cfg    everest.Config // ingest configuration
	shapes []everest.Config

	vids  []*indexed
	order *shuffle
}

func newQueryCold(o options) *queryCold {
	// A pass is nine rounds over the 36-query pool, about half a second.
	w := &queryCold{o: o, frames: 2400, rounds: 9, p: max(1, o.Seconds*2)}
	if o.Trace {
		w.p = max(1, w.p/5)
	}
	w.cfg = everest.Config{K: 1, Proxy: harnessGrid(), Seed: 1, Procs: 1}
	if o.Tiny {
		w.frames, w.rounds, w.p = 640, 1, 1
		w.cfg.Proxy.Epochs = 4
	}
	w.shapes = queryShapes(1, 1)
	// The seed shuffles the pass's ops anew each pass. No op depends on
	// another (there is no cache), so the order moves no count.
	w.order = newShuffle(o.Seed, "query_cold/order", w.opsPerPass())
	return w
}

func (w *queryCold) procs() int      { return 1 }
func (w *queryCold) passes() int     { return w.p }
func (w *queryCold) opsPerPass() int { return w.rounds * 2 * len(w.shapes) }

// opID is the (video, shape) pair at position i of pass p.
func (w *queryCold) opID(p, i int) int { return w.order.at(p, i) % (2 * len(w.shapes)) }

// op resolves an op identity to its video and query shape.
func (w *queryCold) op(id int) (*indexed, everest.Config) {
	return w.vids[id/len(w.shapes)], w.shapes[id%len(w.shapes)]
}

// setup is both BuildIndex calls.
func (w *queryCold) setup() error {
	for i, ds := range []string{"Archie", "Grand-Canal"} {
		v, err := buildIndexed(ds, fmt.Sprintf("cold-c0-%d", i), 0, w.frames, w.cfg)
		if err != nil {
			return err
		}
		w.vids = append(w.vids, v)
	}
	return nil
}

func (w *queryCold) teardown() {}

func (w *queryCold) oracleFrames() float64 {
	n := int64(0)
	for _, v := range w.vids {
		n += v.udf.frames.Load()
	}
	return float64(n)
}

func (w *queryCold) run(p, i int, rec *recorder) opOut {
	v, cfg := w.op(w.opID(p, i))
	v.udf.rec = rec
	res, err := v.ix.Query(traced(v.src, rec), v.udf, cfg)
	v.udf.rec = nil
	if err != nil {
		return opOut{Err: err}
	}
	a := answerOf(res, cfg, w.frames, v.truth)
	return opOut{Answers: []answer{a}, SimMS: a.SimMS}
}

// ladder replays each query as plan → relation build → Execute against
// an artifact ingested through engine.Ingest with the index's own
// options (untraced: Phase 1 is set-up here, not part of any op).
func (w *queryCold) ladder(p int, rec *recorder) ([]opOut, map[string]float64, error) {
	m := make(map[string]float64)
	var c counters
	arts := make(map[*indexed]*engine.Artifact, len(w.vids))
	for _, v := range w.vids {
		art, err := engine.Ingest(v.src, v.udf.inner, planOf(w.cfg).Ingest, simclock.NewClock())
		if err != nil {
			return nil, nil, err
		}
		arts[v] = art
	}
	outs := make([]opOut, w.opsPerPass())
	for i := range outs {
		v, cfg := w.op(w.opID(p, i))
		v.udf.rec = rec
		b := engine.Binding{Src: traced(v.src, rec), UDF: v.udf, Artifact: arts[v]}
		rec.setOp(1_000_000 + i)
		probeRelation(rec, cfg, b, nil)
		root := rec.begin("driver", "ladder_op")
		plan, out, err := ladderQuery(rec, cfg, b, w.frames)
		rec.end(root)
		v.udf.rec = nil
		if err != nil {
			return nil, nil, err
		}
		c.ops++
		c.query(out, plan, w.frames, v.udf)
		outs[i] = opOut{SimMS: out.Clock.TotalMS(), Answers: []answer{replayed(out)}}
	}
	rec.setOp(-1)
	c.flush(m)
	return outs, m, nil
}
