package main

import (
	"os"
	"path/filepath"
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/durable"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/xrand"
)

// serveShared is the serve_shared workload: four shared sessions on one
// index served round-robin, each op one coalesced QueryBatch of four
// members with the oracle mux, a durable directory and a label cap of
// about half the pool's footprint. The cap keeps a deterministic steady
// churn of publishes, FIFO evictions, WAL appends, fsyncs and
// checkpoints beside the cache hits — the write side of the label
// cache. labelstore, the scheduler, oraclemux and durable dominate.
type serveShared struct {
	o       options
	frames  int
	p       int
	cap     int
	cfg     everest.Config     // ingest configuration
	batches [][]everest.Config // the fixed pool: 36 batches of 4
	serves  []int              // seed-chosen: which session serves batch b is serves[b%4]

	tmp   string // the run's temporary directory: the durable store's, and the ladder's second one
	v     *indexed
	sess  []*everest.Session
	tsess []*everest.Session // the same sessions over the traced source
	trec  *recorder
}

const warmPasses = 2

func newServeShared(o options) workload {
	w := &serveShared{o: o, frames: 4000, p: max(1, o.Seconds*8/5), cap: 400}
	if o.Trace {
		w.p = max(1, w.p/5)
	}
	w.cfg = everest.Config{K: 1, Proxy: harnessGrid(), Seed: 1, Procs: 1}
	if o.Tiny {
		w.frames, w.p, w.cap = 1200, 1, 150
		w.cfg.Proxy.Epochs = 4
	}

	// The pool: 6 shapes × 8 K × 3 thresholds = 144 configs, dealt into
	// 36 batches of 4 by a fixed shuffle so every batch mixes shapes.
	var pool []everest.Config
	const seed = 1
	for _, th := range []float64{0.9, 0.95, 0.99} {
		for _, b := range []int{8, 4, 16} {
			for _, k := range []int{5, 10, 15, 20, 25, 30, 40, 50} {
				pool = append(pool, everest.Config{K: k, Threshold: th, BatchSize: b, Seed: seed})
			}
		}
		for _, ws := range [][2]int{{30, 0}, {60, 0}, {30, 15}} {
			for _, k := range []int{2, 3, 4, 5, 6, 8, 10, 12} {
				pool = append(pool, everest.Config{K: k, Threshold: th, Window: ws[0], Stride: ws[1], Seed: seed})
			}
		}
	}
	if o.Tiny {
		pool = pool[:16]
	}
	perm := xrand.New(0).Split("serve_shared/deal").Perm(len(pool))
	for i := 0; i < len(pool); i += 4 {
		var batch []everest.Config
		for _, j := range perm[i : i+4] {
			batch = append(batch, pool[j])
		}
		w.batches = append(w.batches, batch)
	}
	// The batch order is fixed, because the capped cache makes every
	// count depend on it; the seed deals the batches to the four users.
	// They share one cache, so who asks changes no answer.
	w.serves = xrand.New(o.Seed).Split("serve_shared/users").Perm(4)
	return w
}

func (w *serveShared) procs() int        { return 1 }
func (w *serveShared) passes() int       { return w.p }
func (w *serveShared) opsPerPass() int   { return len(w.batches) }
func (w *serveShared) opID(p, i int) int { return i }

// batch is op i of any pass: its member configs with the serving knobs
// set, and which session serves it.
func (w *serveShared) batch(i int, dir string) (cfgs []everest.Config, session int) {
	for _, cfg := range w.batches[i] {
		cfg.Procs = 1
		cfg.Coalesce = true
		cfg.UseMux = true
		cfg.DurableDir = dir
		cfg.CacheMaxLabels = w.cap
		cfgs = append(cfgs, cfg)
	}
	return cfgs, w.serves[i%4]
}

// setup is BuildIndex, four shared sessions, the durable open (on the
// first batch) and two warm-up passes.
func (w *serveShared) setup() error {
	var err error
	if w.tmp, err = os.MkdirTemp(w.o.Dir, ".bench_run-"); err != nil {
		return err
	}
	if w.v, err = buildIndexed("Archie", "serve-c0", 0, w.frames, w.cfg); err != nil {
		return err
	}
	for s := 0; s < 4; s++ {
		sess, err := everest.NewSharedSession(w.v.ix, w.v.src, w.v.udf)
		if err != nil {
			return err
		}
		w.sess = append(w.sess, sess)
	}
	for p := 0; p < warmPasses; p++ {
		for i := 0; i < w.opsPerPass(); i++ {
			if out := w.run(-1, i, nil); out.Err != nil {
				return out.Err
			}
		}
	}
	return nil
}

func (w *serveShared) teardown() {
	if w.v != nil {
		w.v.ix.Close()
	}
	if w.tmp != "" {
		os.RemoveAll(w.tmp)
	}
}

func (w *serveShared) oracleFrames() float64 { return float64(w.v.udf.frames.Load()) }

// sessions returns the four sessions for a pass: over the bare source,
// or — for traced passes — the same shared cache over the traced one.
func (w *serveShared) sessions(rec *recorder) ([]*everest.Session, error) {
	if rec == nil {
		return w.sess, nil
	}
	if w.trec != rec {
		w.tsess, w.trec = nil, rec
		for s := 0; s < 4; s++ {
			sess, err := everest.NewSharedSession(w.v.ix, traced(w.v.src, rec), w.v.udf)
			if err != nil {
				return nil, err
			}
			w.tsess = append(w.tsess, sess)
		}
	}
	return w.tsess, nil
}

func (w *serveShared) run(p, i int, rec *recorder) opOut {
	cfgs, s := w.batch(i, filepath.Join(w.tmp, "wal"))
	sess, err := w.sessions(rec)
	if err != nil {
		return opOut{Err: err}
	}
	w.v.udf.rec = rec
	results, err := sess[s].QueryBatch(cfgs)
	w.v.udf.rec = nil
	if err == nil {
		err = sess[s].DurableErr()
	}
	if err != nil {
		return opOut{Err: err}
	}
	var out opOut
	for j, res := range results {
		a := answerOf(res, cfgs[j], w.frames, w.v.truth)
		a.Cached = true
		out.Answers = append(out.Answers, a)
		out.SimMS += a.SimMS
	}
	return out
}

// tracedWAL is the durable store seen through labelstore's WAL
// interface with a span around every append. The ladder's store has
// automatic checkpoints off and this wrapper runs them at the store's
// own cadence, so a checkpoint is a span of its own instead of a spike
// inside an append.
type tracedWAL struct {
	*durable.Store
	rec            *recorder
	every, pending int
	evicted, ckpts int
	ckptTime       time.Duration
}

func (t *tracedWAL) after() {
	if t.pending++; t.pending >= t.every {
		t.pending = 0
		t.ckpts++
		t.ckptTime += t.rec.timed("durable", "checkpoint", func() { _ = t.Store.Checkpoint() })
	}
}

func (t *tracedWAL) AppendPublish(version uint64, frames []int, scores []float64) (err error) {
	t.rec.timed("durable", "append", func() { err = t.Store.AppendPublish(version, frames, scores) })
	t.after()
	return err
}

func (t *tracedWAL) AppendEvict(version uint64, frames []int) (err error) {
	t.evicted += len(frames)
	t.rec.timed("durable", "append", func() { err = t.Store.AppendEvict(version, frames) })
	t.after()
	return err
}

// ladder replays the whole history of the cache — warm-up passes and
// every measured pass — on a second label cache, a second durable store
// and a private mux, through the layers' exported functions:
// SharedCache.Snapshot/Publish (the scheduler's own wiring, with a span
// each), durable AppendPublish/AppendEvict/Checkpoint (through the WAL
// interface), Scheduler.SubmitGroup. Only pass p is timed. Before each
// timed group the same plans run serially over a private overlay
// (engine.Execute, unpublished): that is the group's engine time, and
// what is left of SubmitGroup is the scheduler's own.
func (w *serveShared) ladder(p int, rec *recorder) ([]opOut, map[string]float64, error) {
	m := make(map[string]float64)
	var c counters
	dir := filepath.Join(w.tmp, "ladder")
	store, err := durable.Open(dir, durable.Options{CheckpointEvery: -1})
	if err != nil {
		return nil, nil, err
	}
	cache := labelstore.NewSharedCache()
	cache.TightenPolicy(labelstore.Policy{MaxLabels: w.cap})
	wal := &tracedWAL{Store: store, every: 64}
	if err := cache.EnableDurable(wal); err != nil {
		return nil, nil, err
	}
	var tr *recorder // nil until the timed pass
	var cacheMS float64
	sched := engine.NewScheduler(
		func() (ov *labelstore.Overlay) {
			cacheMS += ms(tr.timed("labelstore", "snapshot", func() {
				snap, _ := cache.Snapshot()
				ov = labelstore.NewOverlay(snap)
			}))
			return ov
		},
		func(fresh map[int]float64) {
			cacheMS += ms(tr.timed("labelstore", "publish", func() { cache.Publish(fresh) }))
		},
		cache.Admit,
	)
	mux := oraclemux.New(0)
	art, err := engine.Ingest(w.v.src, w.v.udf.inner, planOf(w.cfg).Ingest, simclock.NewClock())
	if err != nil {
		return nil, nil, err
	}
	udf := w.v.udf

	group := func(i int) ([]everest.Config, []engine.Plan, []engine.Binding, error) {
		cfgs, _ := w.batch(i, "")
		plans := make([]engine.Plan, len(cfgs))
		binds := make([]engine.Binding, len(cfgs))
		for j, cfg := range cfgs {
			plan, err := engine.NewPlan(planOf(cfg))
			if err != nil {
				return nil, nil, nil, err
			}
			plans[j] = plan
			binds[j] = engine.Binding{Src: traced(w.v.src, tr), UDF: udf, Artifact: art, Dispatch: mux}
		}
		return cfgs, plans, binds, nil
	}
	for pass := -warmPasses; pass < p; pass++ {
		for i := 0; i < w.opsPerPass(); i++ {
			_, plans, binds, err := group(i)
			if err != nil {
				return nil, nil, err
			}
			if _, err := sched.SubmitGroup(plans, binds); err != nil {
				return nil, nil, err
			}
		}
	}

	// The timed pass.
	tr, wal.rec, udf.rec = rec, rec, rec
	defer func() { udf.rec = nil }()
	wal.evicted, wal.ckpts, wal.ckptTime = 0, 0, 0
	mux0, v0 := mux.Stats(), cache.Version()
	var hits, misses, schedSelf float64
	outs := make([]opOut, w.opsPerPass())
	for i := range outs {
		cfgs, plans, binds, err := group(i)
		if err != nil {
			return nil, nil, err
		}
		rec.setOp(1_000_000 + i)

		// The group's engine time: its plans serially over one private
		// overlay, exactly what runGroup does, never published.
		snap, _ := cache.Snapshot()
		ov := labelstore.NewOverlay(snap)
		var engineMS float64
		probe := rec.begin("driver", "probe")
		for j, cfg := range cfgs {
			for _, f := range art.Retained {
				if _, exact := art.Exact[f]; !exact {
					if _, ok := ov.Get(int(f)); ok {
						hits++
					}
				}
			}
			b := binds[j]
			b.Labels, b.Dispatch = ov, nil // direct dispatch: the mux counts the op only
			probeRelation(rec, cfg, b, nil)
			f0, ns0, t := udf.frames.Load(), udf.ns.Load(), time.Now()
			plan, out, err := ladderQuery(rec, cfg, b, w.frames)
			if err != nil {
				return nil, nil, err
			}
			engineMS += ms(time.Since(t)) - float64(udf.ns.Load()-ns0)/1e6
			misses += float64(udf.frames.Load() - f0)
			c.query(out, plan, w.frames, udf)
		}
		rec.end(probe)

		// The op itself: one coalesced group through the scheduler.
		ns0, cache0 := udf.ns.Load(), cacheMS
		var res []*engine.Outcome
		root := rec.begin("driver", "ladder_op")
		groupMS := ms(rec.timed("engine", "submit_group", func() { res, err = sched.SubmitGroup(plans, binds) }))
		rec.end(root)
		if err != nil {
			return nil, nil, err
		}
		schedSelf += groupMS - (cacheMS - cache0) - float64(udf.ns.Load()-ns0)/1e6 - engineMS
		c.ops++
		for _, out := range res {
			outs[i].Answers = append(outs[i].Answers, replayed(out))
			outs[i].SimMS += out.Clock.TotalMS()
		}
	}
	rec.setOp(-1)
	tr, wal.rec = nil, nil

	n := float64(len(outs))
	c.flush(m)
	// The scheduler's own time is the group less its children (snapshot,
	// publish → WAL, oracle) less the engine time the probe measured.
	mux1 := mux.Stats()
	m["engine.group_size"] = float64(len(w.batches[0]))
	m["labelstore.hit_share"] = ratio(hits, hits+misses)
	m["labelstore.labels"] = float64(cache.Len())
	m["labelstore.evicted"] = float64(wal.evicted) / n
	m["labelstore.version_bumps"] = float64(cache.Version()-v0) / n
	m["oraclemux.requests"] = float64(mux1.Requests-mux0.Requests) / n
	m["oraclemux.launches"] = float64(mux1.Launches-mux0.Launches) / n
	m["oraclemux.consolidation_x"] = ratio(float64(mux1.Requests-mux0.Requests), float64(mux1.Launches-mux0.Launches))
	m["oraclemux.saved_sim_ms"] = (mux1.SavedMS - mux0.SavedMS) / n
	m["engine.sched_self_ms"] = schedSelf / n
	m["durable.checkpoint_ms"] = ratio(ms(wal.ckptTime), float64(wal.ckpts))

	// The store as it lies on disk, and what reopening it costs.
	if err := store.Close(); err != nil {
		return nil, nil, err
	}
	entries, _ := os.ReadDir(dir)
	var bytes int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			bytes += info.Size()
		}
	}
	m["durable.files"] = float64(len(entries))
	m["durable.bytes_per_label"] = ratio(float64(bytes), float64(cache.Len()))
	m["durable.recover_ms"] = ms(rec.timed("durable", "open", func() {
		if s, err := durable.Open(dir, durable.Options{}); err == nil {
			_ = s.Close()
		}
	}))
	return outs, m, nil
}
