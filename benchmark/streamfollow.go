package main

import (
	"fmt"
	"sort"
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/xrand"
)

const (
	setupSegments = 2 // the cold full grid train and the first refresh
	driftNLL      = 3
	reservoirCap  = 256 // stream.Config's default
)

// liveFeed is one live stream over the feed with its three followers.
type liveFeed struct {
	src  *tracedSource
	ls   *everest.LiveStream
	fols []*everest.LiveFollower
	seen [3]int // deltas already consumed per follower
}

// streamFollow is the stream_follow workload: OpenLive on a live feed,
// 300-frame Appends, warm CMDN refreshes, three followers evaluated as
// one group at every segment close. Op = one segment: the summed wall
// time of its Appends, ending when all three deltas of the close are
// delivered. The layers of oneshot_run used differently — cmdn.Refresh
// instead of a grid train, Artifact.Append, followers as one SubmitGroup
// — and serial. Each pass is a stream of its own over the same feed, so
// every segment has one sample per pass.
type streamFollow struct {
	o          options
	segFrames  int
	chunks     int
	n, p       int // measured segments per stream, streams
	cfg        everest.Config
	followers  []everest.Config
	feedFrames int

	udf   *oracleUDF
	truth *truth
	feeds []*liveFeed

	idleUS, closeMS []float64 // Append timings of the traced pass
}

func newStreamFollow(o options) workload {
	w := &streamFollow{o: o, segFrames: 1200, chunks: 4, n: max(3, o.Seconds*11/15), p: 3}
	if o.Trace {
		w.n, w.p = max(3, w.n/3), 1
	}
	w.cfg = everest.Config{K: 10, Threshold: 0.9, Proxy: harnessGrid(), Seed: 1, Procs: 1}
	if o.Tiny {
		w.segFrames, w.n, w.p = 600, 2, 1
		w.cfg.Proxy.Epochs = 4
	}
	w.followers = []everest.Config{
		w.cfg,
		{K: 5, Threshold: 0.9, Window: 30, Seed: w.cfg.Seed, Procs: 1},
		{K: 20, Threshold: 0.95, Seed: w.cfg.Seed, Procs: 1},
	}
	// The feed's length is fixed: a synthetic video's content depends on
	// its length, and the segments' content must not move with -seconds.
	w.feedFrames = 32400
	if need := (setupSegments + w.n) * w.segFrames; need > w.feedFrames {
		w.feedFrames = need
	}
	return w
}

func (w *streamFollow) procs() int        { return 1 }
func (w *streamFollow) passes() int       { return w.p }
func (w *streamFollow) opsPerPass() int   { return w.n }
func (w *streamFollow) opID(p, i int) int { return i }

// streams is how many streams a run opens: one per pass, and in a traced
// run the traced pass's too.
func (w *streamFollow) streams() int {
	if w.o.Trace {
		return 2 * w.p
	}
	return w.p
}

// cuts is how segment seg arrives: the seed splits its frames into
// Appends of whole hundreds. Ingestion is chunking-invariant, so the
// split moves no count; it is the same for every stream.
func (w *streamFollow) cuts(seg int) []int {
	hundreds := w.segFrames / 100
	marks := xrand.New(w.o.Seed).Split("stream_follow/chunks").SplitIndex(uint64(seg)).SampleK(hundreds-1, w.chunks-1)
	sort.Ints(marks)
	var sizes []int
	prev := 0
	for _, m := range marks {
		sizes = append(sizes, (m+1)*100-prev)
		prev = (m + 1) * 100
	}
	return append(sizes, w.segFrames-prev)
}

func (w *streamFollow) feed() (*video.Synthetic, error) {
	return synthetic("Archie", "stream-c0", 0, w.feedFrames)
}

// setup opens every stream, registers the followers and runs the first
// two segments: the cold full grid train and the first refresh.
func (w *streamFollow) setup() error {
	w.udf = &oracleUDF{inner: vision.CountUDF{Class: video.ClassCar}}
	for s := 0; s < w.streams(); s++ {
		src, err := w.feed()
		if err != nil {
			return err
		}
		if w.truth == nil {
			w.truth = newTruth(src, w.udf.inner)
		}
		f := &liveFeed{src: &tracedSource{Source: src}}
		f.ls, err = everest.OpenLive(f.src, w.udf, w.cfg, everest.LiveConfig{
			SegmentFrames: w.segFrames, Warm: true, DriftNLL: driftNLL,
		})
		if err != nil {
			return err
		}
		w.feeds = append(w.feeds, f)
		for _, cfg := range w.followers[1:] {
			fol, err := f.ls.Follow(cfg, 0, nil)
			if err != nil {
				return err
			}
			f.fols = append(f.fols, fol)
		}
		for seg := 0; seg < setupSegments; seg++ {
			if out := w.segment(f, seg, nil); out.Err != nil {
				return out.Err
			}
		}
	}
	return nil
}

func (w *streamFollow) teardown() {
	for _, f := range w.feeds {
		f.ls.Close()
	}
}

func (w *streamFollow) oracleFrames() float64 { return float64(w.udf.frames.Load()) }

func (w *streamFollow) run(p, i int, rec *recorder) opOut {
	f := w.feeds[p]
	f.src.rec, w.udf.rec = rec, rec
	out := w.segment(f, setupSegments+i, rec)
	f.src.rec, w.udf.rec = nil, nil
	return out
}

// segment delivers one segment's Appends and collects the close's three
// deltas — exactly one per follower, or the op fails.
func (w *streamFollow) segment(f *liveFeed, seg int, rec *recorder) opOut {
	ingest0 := f.ls.IngestMS()
	for c, size := range w.cuts(seg) {
		t := time.Now()
		if err := f.ls.Append(size); err != nil {
			return opOut{Err: err}
		}
		if rec != nil {
			if c == w.chunks-1 {
				w.closeMS = append(w.closeMS, ms(time.Since(t)))
			} else {
				w.idleUS = append(w.idleUS, us(time.Since(t)))
			}
		}
	}
	out := opOut{SimMS: f.ls.IngestMS() - ingest0}
	frontier := (seg + 1) * w.segFrames
	for k, cfg := range w.followers {
		deltas := f.ls.Deltas()
		if k > 0 {
			deltas = f.fols[k-1].Deltas()
		}
		if len(deltas) != f.seen[k]+1 {
			return opOut{Err: fmt.Errorf("follower %d got %d deltas for the close of segment %d, want 1", k, len(deltas)-f.seen[k], seg)}
		}
		f.seen[k]++
		d := deltas[len(deltas)-1]
		if d.Frontier != frontier {
			return opOut{Err: fmt.Errorf("follower %d answered at frontier %d, want %d", k, d.Frontier, frontier)}
		}
		a := answer{
			IDs: d.IDs, Scores: d.Scores, Confidence: d.Confidence, SimMS: d.QueryMS,
			K: cfg.K, Window: cfg.Window, Stride: cfg.Window, Threshold: cfg.Threshold,
			Seed: cfg.Seed, Frames: frontier, Truth: w.truth, Cached: true,
		}
		out.Answers = append(out.Answers, a)
		out.SimMS += a.SimMS
	}
	return out
}

// ladderStream is the ingestor's segment close written out with the
// layers' exported functions: the same eager labelling, drift check,
// cmdn.Refresh or full train, AssembleState, engine.Capture,
// Artifact.Append and follower group as internal/stream composes, for
// segments that close at their planned span.
type ladderStream struct {
	w     *streamFollow
	src   video.Source
	opt   phase1.Options
	plans []engine.Plan

	art       *engine.Artifact
	clock     *simclock.Clock
	sched     *engine.Scheduler
	prev      *cmdn.Proxy
	reservoir []cmdn.Sample
	resSeen   int

	// What the timed segments did.
	c                   counters
	warm, fallbacks     int
	eager               int
	refreshMS, followMS float64
}

func (w *streamFollow) newLadderStream(src video.Source) (*ladderStream, error) {
	l := &ladderStream{w: w, src: src, opt: planOf(w.cfg).Ingest, clock: simclock.NewClock()}
	l.sched = engine.NewCacheScheduler(labelstore.NewSharedCache())
	for _, cfg := range w.followers {
		plan, err := engine.NewPlan(planOf(cfg))
		if err != nil {
			return nil, err
		}
		l.plans = append(l.plans, plan)
	}
	return l, nil
}

func (l *ladderStream) segment(seg int, rec *recorder) (opOut, error) {
	w := l.w
	lo := seg * w.segFrames
	opt := l.opt
	opt.Seed ^= uint64(lo)
	var view video.Source
	var err error
	if lo == 0 {
		view, err = video.Prefix(l.src, w.segFrames)
	} else {
		view, err = video.Slice(l.src, lo, lo+w.segFrames)
	}
	if err != nil {
		return opOut{}, err
	}
	ingest0 := l.clock.TotalMS()

	// Eager labelling: the plan is fixed when the segment opens, and each
	// Append labels the planned frames that have arrived.
	var sp phase1.SamplePlan
	rec.timed("phase1", "plan", func() { sp, err = phase1.PlanSamples(w.segFrames, opt) })
	if err != nil {
		return opOut{}, err
	}
	wanted := append(append([]int(nil), sp.TrainIdx...), sp.HoldIdx...)
	sort.Ints(wanted)
	scores := make(map[int]float64, len(wanted))
	rec.timed("phase1", "label", func() {
		arrived, pos := 0, 0
		for _, size := range w.cuts(seg) {
			arrived += size
			from := pos
			for pos < len(wanted) && wanted[pos] < arrived {
				pos++
			}
			for k, s := range phase1.Label(view, w.udf, wanted[from:pos], opt, l.clock) {
				scores[wanted[from+k]] = s
			}
		}
	})
	l.eager += len(wanted)
	pick := func(idx []int) []float64 {
		out := make([]float64, len(idx))
		for k, f := range idx {
			out[k] = scores[f]
		}
		return out
	}
	trainScores, holdScores := pick(sp.TrainIdx), pick(sp.HoldIdx)

	// The close: warm refresh when the drift check allows, full grid
	// train otherwise.
	var hold []cmdn.Sample
	warm := l.prev != nil
	if warm {
		rec.timed("phase1", "samples", func() {
			hold = phase1.Samples(view, opt.Proxy.Arch, sp.HoldIdx, holdScores, opt.Procs, nil)
		})
		rec.timed("cmdn", "drift", func() {
			if l.prev.DriftNLL(hold) > l.prev.HoldoutNLL()+driftNLL {
				warm = false
				l.fallbacks++
			}
		})
	}
	var st *phase1.State
	if !warm {
		in, err := ladderTrain(rec, view, opt, sp, trainScores, holdScores, l.clock)
		if err != nil {
			return opOut{}, err
		}
		st = in.state
	} else {
		var train []cmdn.Sample
		var proxy *cmdn.Proxy
		rec.timed("phase1", "samples", func() {
			train = phase1.Samples(view, opt.Proxy.Arch, sp.TrainIdx, trainScores, opt.Procs, nil)
		})
		calib := append(append([]cmdn.Sample(nil), l.reservoir...), hold...)
		l.refreshMS += ms(rec.timed("cmdn", "refresh", func() {
			proxy, err = cmdn.Refresh(l.prev, train, hold, calib,
				cmdn.RefreshConfig{Seed: opt.Seed, Procs: opt.Procs}, opt.Proxy, l.clock, opt.Cost)
		}))
		if err != nil {
			return opOut{}, err
		}
		l.warm++
		rec.timed("phase1", "assemble", func() {
			st, err = phase1.AssembleState(view, proxy, opt, sp, trainScores, holdScores, l.clock)
		})
		if err != nil {
			return opOut{}, err
		}
	}
	var art *engine.Artifact
	rec.timed("engine", "capture", func() { art = engine.Capture(st, w.udf, opt.Cost, l.clock) })
	rec.timed("engine", "append", func() {
		if l.art == nil {
			l.art = art
		} else {
			err = l.art.Append(art, lo)
		}
	})
	if err != nil {
		return opOut{}, err
	}
	l.prev = st.Proxy
	// The calibration reservoir, as the ingestor keeps it.
	r := xrand.New(l.opt.Seed).Split("stream/reservoir").SplitIndex(uint64(seg))
	for _, s := range hold {
		l.resSeen++
		if len(l.reservoir) < reservoirCap {
			l.reservoir = append(l.reservoir, s)
		} else if j := r.Intn(l.resSeen); j < reservoirCap {
			l.reservoir[j] = s
		}
	}

	// The followers, as one coalesced group over the stream's cache.
	out := opOut{SimMS: l.clock.TotalMS() - ingest0}
	prefix, err := video.Prefix(l.src, l.art.TotalFrames)
	if err != nil {
		return opOut{}, err
	}
	binds := make([]engine.Binding, len(l.plans))
	for i := range binds {
		binds[i] = engine.Binding{Src: prefix, UDF: w.udf, Artifact: l.art}
	}
	var outs []*engine.Outcome
	l.followMS += ms(rec.timed("stream", "follow", func() { outs, err = l.sched.SubmitGroup(l.plans, binds) }))
	if err != nil {
		return opOut{}, err
	}
	for i, o := range outs {
		l.c.query(o, l.plans[i], l.art.TotalFrames, w.udf)
		out.Answers = append(out.Answers, replayed(o))
		out.SimMS += o.Clock.TotalMS()
	}
	return out, nil
}

// ladder replays the whole stream — set-up segments untimed, the
// measured ones with a span per stage.
func (w *streamFollow) ladder(p int, rec *recorder) ([]opOut, map[string]float64, error) {
	m := make(map[string]float64)
	src, err := w.feed()
	if err != nil {
		return nil, nil, err
	}
	l, err := w.newLadderStream(traced(src, rec))
	if err != nil {
		return nil, nil, err
	}
	for seg := 0; seg < setupSegments; seg++ {
		if _, err := l.segment(seg, nil); err != nil {
			return nil, nil, err
		}
	}
	l.c, l.warm, l.fallbacks, l.eager, l.refreshMS, l.followMS = counters{}, 0, 0, 0, 0, 0
	l.clock = simclock.NewClock()
	w.udf.rec = rec
	defer func() { w.udf.rec = nil }()
	outs := make([]opOut, w.n)
	for i := range outs {
		rec.setOp(1_000_000 + i)
		probeDiffdet(rec, mustSlice(src, (setupSegments+i)*w.segFrames, w.segFrames, rec), l.opt)
		root := rec.begin("driver", "ladder_op")
		outs[i], err = l.segment(setupSegments+i, rec)
		rec.end(root)
		if err != nil {
			return nil, nil, err
		}
		l.c.ops++
	}
	rec.setOp(-1)
	n := float64(w.n)
	l.c.clock(l.clock, w.n*w.segFrames, w.udf, l.opt.Cost)
	l.c.flush(m)
	followMS := l.followMS / n
	m["stream.idle_append_us"] = ratio(sum(w.idleUS), float64(len(w.idleUS)))
	m["stream.close_ms"] = max(0, ratio(sum(w.closeMS), float64(len(w.closeMS)))-followMS)
	m["stream.warm_share"] = float64(l.warm) / n
	m["stream.drift_fallbacks"] = float64(l.fallbacks)
	m["stream.eager_labels"] = float64(l.eager) / n
	m["engine.group_size"] = float64(len(w.followers))
	m["phase1.train_samples"] = float64(l.art.Info.TrainSamples) / float64(setupSegments+w.n)
	m["diffdet.retained_share"] = ratio(float64(l.art.Info.Retained), float64(l.art.TotalFrames))
	m["nn.fit_us_per_sample"] = fitUSPerSample(l.refreshMS, l.warm*l.art.Info.TrainSamples/(setupSegments+w.n), 5, 1)
	probeProxy(l.prev, src, 512, m)
	return outs, m, nil
}

// mustSlice is the segment's view for a probe; the bounds are the
// driver's own, so an error is a bug here.
func mustSlice(src video.Source, lo, n int, rec *recorder) video.Source {
	s, err := video.Slice(src, lo, lo+n)
	if err != nil {
		panic(err)
	}
	return traced(s, rec)
}
