package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/eql"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/xrand"
)

// eqlRelation is one of the two relations the scripts query: a catalog
// video under a frame limit, as eql binds it (the catalog's own name and
// seed — EQL has no way to take a source from its caller).
type eqlRelation struct {
	dataset, class string
	frames         int
	truth          *truth
	src            *video.Synthetic
}

func (r *eqlRelation) from() string {
	name := r.dataset
	if strings.ContainsAny(name, "-") {
		name = `"` + name + `"`
	}
	return name
}

// maxWarmRounds bounds the set-up's rounds to the fixed point; it takes
// two or three.
const maxWarmRounds = 8

// eqlStmt is one generated statement.
type eqlStmt struct {
	rel               int
	explain           bool
	k, window, stride int
	threshold         float64
}

func (s eqlStmt) text(rels []*eqlRelation, seed uint64) string {
	r := rels[s.rel]
	var b strings.Builder
	if s.explain {
		b.WriteString("EXPLAIN ")
	}
	fmt.Fprintf(&b, "SELECT TOP %d ", s.k)
	switch {
	case s.window == 0:
		b.WriteString("FRAMES")
	case s.stride == 0:
		fmt.Fprintf(&b, "WINDOWS OF %d", s.window)
	default:
		fmt.Fprintf(&b, "WINDOWS OF %d EVERY %d", s.window, s.stride)
	}
	fmt.Fprintf(&b, " FROM %s RANK BY count(%s)", r.from(), r.class)
	if s.threshold != 0 {
		fmt.Fprintf(&b, " THRESHOLD %g", s.threshold)
	}
	fmt.Fprintf(&b, " LIMIT FRAMES %d SEED %d", r.frames, seed)
	return b.String()
}

func (s eqlStmt) config(seed uint64) everest.Config {
	return everest.Config{K: s.k, Threshold: s.threshold, Window: s.window, Stride: s.stride, Seed: seed}
}

// eqlScript is the eql_script workload: one persistent ScriptSession, op
// = one ExecWith of a four-statement script over two relations. After
// set-up every query is a warm read of a private label cache, so lexing,
// parsing, binding and planning are a visible share of the op — the read
// side of the label cache, and the only workload through eql.
type eqlScript struct {
	o      options
	rounds int // rounds over the texts in one pass
	p      int
	seed   uint64
	rels   []*eqlRelation
	stmts  [][]eqlStmt
	texts  []string
	order  *shuffle

	ss          *eql.ScriptSession
	warmRounds  int // set-up rounds over the texts until nothing new was scored
	last        *eql.ScriptResult
	frames      float64 // oracle frames, derived from the results' charges
	setupFrames float64
}

func newEQLScript(o options) workload {
	// A pass is 25 rounds over the six texts, about half a second.
	w := &eqlScript{o: o, rounds: 25, p: max(1, o.Seconds*2), seed: 1}
	if o.Trace {
		w.p = max(1, w.p/5)
	}
	w.rels = []*eqlRelation{
		{dataset: "Archie", class: video.ClassCar, frames: 1500},
		{dataset: "Grand-Canal", class: video.ClassBoat, frames: 1200},
	}
	if o.Tiny {
		// One relation: a relation's ingest is the whole cost at this
		// scale, and EQL picks its grid itself.
		w.rounds, w.p = 1, 2
		w.rels[0].frames = 640
		w.rels[1] = w.rels[0]
	}
	// Six texts of four statements: every text mixes FRAMES, WINDOWS and
	// THRESHOLD over both relations and carries one plain EXPLAIN.
	r := xrand.New(0).Split("eql_script/texts")
	ks, wks := []int{5, 10, 20, 50}, []int{3, 5, 8, 10}
	ths := []float64{0, 0.95, 0.99}
	shapes := [][2]int{{30, 0}, {60, 0}, {30, 15}}
	for t := 0; t < 6; t++ {
		a, b := t%2, 1-t%2
		sh := shapes[t%3]
		stmts := []eqlStmt{
			{rel: a, k: ks[r.Intn(4)], threshold: ths[1+r.Intn(2)]},
			{rel: b, k: wks[r.Intn(4)], window: sh[0], stride: sh[1]},
			{rel: a, k: ks[r.Intn(4)], explain: true},
			{rel: b, k: ks[r.Intn(4)], threshold: ths[r.Intn(3)]},
		}
		// The EXPLAIN moves around the script.
		e := t % 4
		stmts[2], stmts[e] = stmts[e], stmts[2]
		var lines []string
		for _, s := range stmts {
			lines = append(lines, s.text(w.rels, w.seed))
		}
		w.stmts = append(w.stmts, stmts)
		w.texts = append(w.texts, strings.Join(lines, ";\n"))
	}
	w.order = newShuffle(o.Seed, "eql_script/order", w.opsPerPass())
	return w
}

func (w *eqlScript) procs() int      { return 1 }
func (w *eqlScript) passes() int     { return w.p }
func (w *eqlScript) opsPerPass() int { return w.rounds * len(w.texts) }

// opID is the text at position i of pass p: the seed shuffles the pass's
// ops anew each pass. Every query is warm, so the order moves no count.
func (w *eqlScript) opID(p, i int) int { return w.order.at(p, i) % len(w.texts) }

// setup is the first Exec of each text — it ingests both relations —
// and then further rounds over the texts until a whole round scores no
// new frame. A query run over a cache that other queries have grown can
// still clean a frame it did not need before, so one round does not make
// every query warm; at the fixed point no order of the texts scores
// anything, which is what lets the seed shuffle them.
func (w *eqlScript) setup() error {
	for _, r := range w.rels {
		spec, err := video.DatasetByName(r.dataset)
		if err != nil {
			return err
		}
		if r.src, err = spec.Build(r.frames); err != nil {
			return err
		}
		r.truth = newTruth(r.src, vision.CountUDF{Class: r.class})
	}
	w.ss = eql.NewScriptSession()
	ingested := make(map[int]bool)
	for w.warmRounds = 0; w.warmRounds < maxWarmRounds; w.warmRounds++ {
		before := w.frames
		for t, stmts := range w.stmts {
			out := w.exec(t)
			if out.Err != nil {
				return out.Err
			}
			// Phase 1's labels are oracle frames too; the results name
			// them.
			for i, s := range stmts {
				if !s.explain && !ingested[s.rel] {
					ingested[s.rel] = true
					info := w.last.Statements[i].Units[0].Result.Phase1
					w.frames += float64(info.TrainSamples + info.HoldoutSamples)
					before = w.frames
				}
			}
		}
		if w.frames == before && w.warmRounds > 0 {
			w.warmRounds++
			w.setupFrames = w.frames
			return nil
		}
	}
	return fmt.Errorf("label caches still growing after %d rounds over the texts", maxWarmRounds)
}

func (w *eqlScript) teardown() {}

func (w *eqlScript) oracleFrames() float64 { return w.frames }

func (w *eqlScript) run(p, i int, rec *recorder) opOut {
	return w.exec(w.opID(p, i))
}

// exec runs text t and packages its executed statements' answers.
func (w *eqlScript) exec(t int) opOut {
	res, err := w.ss.ExecWith(w.texts[t], eql.ScriptOptions{Procs: 1})
	if err != nil {
		return opOut{Err: err}
	}
	w.last = res
	var out opOut
	cost := simclock.Default()
	for i, s := range w.stmts[t] {
		sr := res.Statements[i]
		if s.explain {
			if sr.Explain == "" {
				return opOut{Err: fmt.Errorf("statement %d: EXPLAIN rendered nothing", i)}
			}
			continue
		}
		if len(sr.Units) != 1 || sr.Units[0] == nil || sr.Units[0].Result == nil {
			return opOut{Err: fmt.Errorf("statement %d: no result", i)}
		}
		r := w.rels[s.rel]
		a := answerOf(sr.Units[0].Result, s.config(w.seed), r.frames, r.truth)
		a.Cached = true
		out.Answers = append(out.Answers, a)
		out.SimMS += a.SimMS
		// The confirm phase is charged per scored frame plus a launch
		// overhead per oracle call; what is left after the calls is frames.
		res := sr.Units[0].Result
		w.frames += math.Round((res.Clock.PhaseMS(simclock.PhaseConfirm) - float64(res.EngineStats.OracleCalls)*cost.OracleCallMS) / cost.OracleMS)
	}
	return out
}

// ladder replays each script as eql.ParseScript → eql.BindScript → the
// bound units' configs through Session.QueryBatch (one coalesced batch
// per relation, as the script executor submits them) on sessions of the
// ladder's own, warmed by the same rounds over the texts → and
// eql.ExplainScript of the script's one EXPLAIN statement, which stands
// for the planning and rendering the executor does for it. What is left of
// ExecWith after parse, bind and the batches is the EQL executor's own
// time.
func (w *eqlScript) ladder(p int, rec *recorder) ([]opOut, map[string]float64, error) {
	m := make(map[string]float64)
	sess := make(map[eql.RelationKey]*everest.Session)
	sessionFor := func(rel *eql.Relation) (*everest.Session, error) {
		if s, ok := sess[rel.Key]; ok {
			return s, nil
		}
		cfg := rel.Units[0].Config
		cfg.Procs = 1
		ix, err := everest.BuildIndex(rel.Source, rel.UDF, cfg)
		if err != nil {
			return nil, err
		}
		s, err := everest.NewSession(ix, rel.Source, rel.UDF)
		if err != nil {
			return nil, err
		}
		sess[rel.Key] = s
		return s, nil
	}
	var c counters
	var shared, batchMS float64
	replay := func(t int, tr *recorder) (opOut, float64, error) {
		var (
			script *eql.Script
			sp     *eql.ScriptPlan
			err    error
			out    opOut
		)
		start := time.Now()
		tr.timed("eql", "parse", func() { script, err = eql.ParseScript(w.texts[t]) })
		if err != nil {
			return out, 0, err
		}
		tr.timed("eql", "bind", func() { sp, err = eql.BindScript(script) })
		if err != nil {
			return out, 0, err
		}
		shared = float64(sp.SharedUnits())
		answers := make([]answer, len(sp.Statements))
		for _, rel := range sp.Relations {
			var cfgs []everest.Config
			var stmts []int
			for _, u := range rel.Units {
				if sp.Statements[u.Stmt].Stmt.Explain {
					continue
				}
				cfg := u.Config
				cfg.Procs, cfg.Coalesce = 1, true
				cfgs = append(cfgs, cfg)
				stmts = append(stmts, u.Stmt)
			}
			if len(cfgs) == 0 {
				continue
			}
			s, err := sessionFor(rel)
			if err != nil {
				return out, 0, err
			}
			var results []*everest.Result
			d := tr.timed("engine", "query_batch", func() { results, err = s.QueryBatch(cfgs) })
			if tr != nil {
				batchMS += ms(d)
			}
			if err != nil {
				return out, 0, err
			}
			for j, res := range results {
				answers[stmts[j]] = answer{IDs: res.IDs, Scores: res.Scores, SimMS: res.Clock.TotalMS()}
				if tr != nil {
					c.phase2(res.EngineStats, res.Phase1.Tuples, cfgs[j].K, res.IsWindow)
					c.clock(res.Clock, rel.Source.NumFrames(), rel.UDF, simclock.Default())
				}
			}
		}
		for i, a := range answers {
			if !sp.Statements[i].Stmt.Explain {
				out.Answers = append(out.Answers, a)
				out.SimMS += a.SimMS
			}
		}
		return out, ms(time.Since(start)), nil
	}
	for round := 0; round < w.warmRounds; round++ {
		for t := range w.texts {
			if _, _, err := replay(t, nil); err != nil {
				return nil, nil, err
			}
		}
	}
	outs := make([]opOut, w.opsPerPass())
	var execSelf float64
	for i := range outs {
		t := w.opID(p, i)
		rec.setOp(1_000_000 + i)
		// The op again, untraced, for a paired measurement: what ExecWith
		// takes beyond the stages replayed right after it.
		execMS := ms(elapsed(func() { _ = w.exec(t) }))
		root := rec.begin("driver", "ladder_op")
		out, stagesMS, err := replay(t, rec)
		for _, s := range w.stmts[t] {
			if s.explain {
				rec.timed("eql", "explain", func() { _, _ = eql.ExplainScript(s.text(w.rels, w.seed)) })
			}
		}
		rec.end(root)
		if err != nil {
			return nil, nil, err
		}
		outs[i] = out
		execSelf += execMS - stagesMS
		c.ops++
	}
	rec.setOp(-1)
	c.flush(m)
	n := float64(len(outs))
	m["eql.exec_self_ms"] = execSelf / n
	m["engine.execute_ms"] = batchMS / n // the batches: relation builds and Execute inside Session.QueryBatch
	m["eql.statements"] = float64(len(w.stmts[0]))
	m["eql.shared_units"] = shared
	// No artifact to count overlay hits against here, so the hit share is
	// the cache's: of the labels it holds, how many the window did not
	// have to score again.
	labels := 0.0
	for _, s := range sess {
		labels += float64(s.CachedLabels())
	}
	m["labelstore.labels"] = labels
	m["labelstore.hit_share"] = ratio(labels, labels+w.frames-w.setupFrames)
	return outs, m, nil
}
