// Package stream implements live ingestion for Everest: a camera feed
// arrives in chunks, Phase 1 runs incrementally as footage lands, and
// continuous top-K followers receive answer deltas instead of
// re-running queries from scratch.
//
// The batch entrypoints (BuildIndex, Index.Extend) pay Phase 1 for a
// whole appended span at once. The Ingestor spreads that work over
// chunk arrivals while keeping the engine's determinism contract: the
// ingested artifact is a pure function of the segment-boundary
// sequence, never of how frames were chunked on the way in. Frames are
// modelled as a growing prefix of an underlying video.Source — the same
// append-only camera model Index.Extend uses.
//
// Three ideas, layered:
//
//   - Eager labelling. A segment's labelling plan (phase1.PlanSamples)
//     is fixed the moment the segment opens, so sampled frames are
//     labelled chunk by chunk as they arrive instead of in one burst at
//     the segment close. For a segment that closes at its planned span
//     both the labels and the simulated charges are bit-identical to the
//     batch path.
//
//   - Warm CMDN refresh. At a segment close the previous segment's
//     selected model is fine-tuned on the new samples (cmdn.Refresh) at
//     ~1/84 of a full grid specialize, guarded by a drift pre-check
//     (cmdn.(*Proxy).DriftNLL) that falls back to a full train when the
//     score distribution moved. Calibration draws on a deterministic
//     reservoir of held-out samples spanning past segments.
//
//   - Continuous top-K. Followers register a Phase 2 plan once and get
//     answer deltas (entered/left/reordered) as segments close. All
//     followers due at a close evaluate as one coalesced scheduler
//     group over the ingestor's private label cache, so concurrent
//     followers share confirmation batches and each oracle-confirmed
//     frame is paid for once.
//
// A segment close decodes each of its frames once. It runs Phase 1 in
// the pass-first order (phase1.RunPass): the difference detector's pass
// comes first and writes the features of every planned or retained
// frame into the ingestor's feature block, one row per frame. The drift
// check, the warm refresh or the full train read their samples as views
// of the block, and the retained frames are predicted from their rows.
// The block is grown once, reused by every close and released at Seal;
// a reservoir sample copies its features out of it.
package stream

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/workpool"
	"github.com/everest-project/everest/internal/xrand"
)

// Config parameterizes an Ingestor.
type Config struct {
	// SegmentFrames is the model-refresh granularity: every this many
	// ingested frames the open segment closes — its CMDN is trained (or
	// warm-refreshed), the difference detector runs, and the frames
	// join the artifact. Zero means 1800 (one minute at 30 fps).
	SegmentFrames int
	// Warm enables the incremental CMDN refresh at segment closes: the
	// previous segment's model is fine-tuned on the new samples when the
	// drift pre-check passes, and a full grid train runs when it does
	// not. Off (the zero value), every segment trains the full grid —
	// batch Extend semantics at streaming granularity, bit-identical
	// (results and charges) to repeated Index.Extend calls at the same
	// segment boundaries.
	Warm bool
	// DriftNLL is the Warm tolerance: warm-start only while the
	// previous model's mean NLL on the new segment's holdout samples
	// stays within this margin of its selection-time holdout NLL. Zero
	// means 0.5; negative disables warm starts entirely (every warm
	// close counts as a drift fallback), +Inf disables the fallback.
	// NaN is rejected.
	DriftNLL float64
	// ReservoirCap bounds the cross-segment calibration reservoir of
	// held-out samples; zero means 256.
	ReservoirCap int
	// Ingest is the Phase 1 configuration. Ingest.Seed is the base
	// seed: the segment opening at global frame lo derives its stream
	// as Seed^lo, exactly like Index.Extend, so a stream without Warm
	// and a sequence of batch Extends at the same boundaries draw
	// identical samples. Ingest.Cost must be resolved
	// (simclock.OrDefault).
	Ingest phase1.Options
}

func (c Config) withDefaults() Config {
	if c.SegmentFrames == 0 {
		c.SegmentFrames = 1800
	}
	if c.DriftNLL == 0 {
		c.DriftNLL = 0.5
	}
	if c.ReservoirCap == 0 {
		c.ReservoirCap = 256
	}
	return c
}

// Stats counts what the ingestor has done.
type Stats struct {
	// Chunks and Segments count Append calls and closed segments.
	Chunks, Segments int
	// WarmRefreshes, FullTrains and DriftFallbacks break down segment
	// closes: warm starts taken, full grid trains run, and how many of
	// the full trains were Warm closes rejected by the drift pre-check.
	WarmRefreshes, FullTrains, DriftFallbacks int
	// EagerLabels counts frames labelled chunk-granularly before their
	// segment closed; WastedLabels the subset a sealed-short segment's
	// re-plan did not reuse.
	EagerLabels, WastedLabels int
	// ForcedCloses counts segments closed early by a follower's
	// staleness bound rather than at their planned span: closes that
	// happened, not the chunks a stale follower waited through while
	// the open segment was under Phase 1's 10-frame minimum.
	ForcedCloses int
	// Evaluations counts follower evaluation groups submitted.
	Evaluations int
}

// Ingestor ingests a live feed incrementally. Not safe for concurrent
// use; one goroutine owns it.
type Ingestor struct {
	src video.Source
	udf vision.UDF
	cfg Config

	art   *engine.Artifact
	clock *simclock.Clock
	cache *labelstore.SharedCache
	sched *engine.Scheduler

	frontier int // frames arrived (visible to the open segment)
	ingested int // frames covered by the artifact
	chunkSeq int
	sealed   bool

	// Open-segment state: the labelling plan over the planned span and
	// the eagerly obtained oracle scores, all in segment-local frames.
	segLo   int
	segSpan int
	segSrc  video.Source
	segPlan phase1.SamplePlan
	eager   map[int]float64
	wanted  []int // plan frames ascending; wantPos is the labelling cursor
	wantPos int

	// block is the segment close's feature scratch (phase1.RunPass):
	// one row per frame of the segment, grown once, reused at every
	// close and released at Seal.
	block []float64

	prevProxy *cmdn.Proxy
	reservoir []cmdn.Sample
	resSeen   int
	segIdx    int

	followers []*Follower
	stats     Stats
}

// NewIngestor starts ingesting src from frame zero. The source is the
// underlying camera recording; frames become visible to the ingestor
// only as Append delivers them.
func NewIngestor(src video.Source, udf vision.UDF, cfg Config) (*Ingestor, error) {
	return newIngestor(nil, src, udf, cfg)
}

// NewIngestorFrom resumes ingestion on top of an existing artifact
// (typically a loaded index's): streaming continues at art.TotalFrames.
// The artifact is mutated in place as segments close.
func NewIngestorFrom(art *engine.Artifact, src video.Source, udf vision.UDF, cfg Config) (*Ingestor, error) {
	if art == nil {
		return nil, errors.New("stream: nil artifact")
	}
	if src == nil || udf == nil {
		return nil, errors.New("stream: nil source or UDF")
	}
	if art.Dataset != src.Name() || art.UDFName != udf.Name() {
		return nil, fmt.Errorf("stream: artifact is for (%s, %s), not (%s, %s)",
			art.Dataset, art.UDFName, src.Name(), udf.Name())
	}
	if art.TotalFrames > src.NumFrames() {
		return nil, fmt.Errorf("stream: artifact covers %d frames but the feed has %d",
			art.TotalFrames, src.NumFrames())
	}
	return newIngestor(art, src, udf, cfg)
}

func newIngestor(art *engine.Artifact, src video.Source, udf vision.UDF, cfg Config) (*Ingestor, error) {
	if src == nil || udf == nil {
		return nil, errors.New("stream: nil source or UDF")
	}
	cfg = cfg.withDefaults()
	if cfg.SegmentFrames < 0 {
		return nil, fmt.Errorf("stream: negative segment size %d", cfg.SegmentFrames)
	}
	if math.IsNaN(cfg.DriftNLL) {
		return nil, errors.New("stream: drift tolerance is NaN")
	}
	g := &Ingestor{
		src:   src,
		udf:   udf,
		cfg:   cfg,
		art:   art,
		clock: simclock.NewClock(),
		cache: labelstore.NewSharedCache(),
	}
	g.sched = engine.NewCacheScheduler(g.cache)
	if art != nil {
		g.frontier = art.TotalFrames
		g.ingested = art.TotalFrames
	}
	if err := g.openSegment(); err != nil {
		return nil, err
	}
	return g, nil
}

// Frontier returns how many frames have arrived.
func (g *Ingestor) Frontier() int { return g.frontier }

// Artifact exposes the growing artifact. It only ever changes at
// segment closes; between closes it is safe to query.
func (g *Ingestor) Artifact() *engine.Artifact { return g.art }

// IngestMS returns the simulated Phase 1 cost accumulated so far.
func (g *Ingestor) IngestMS() float64 { return g.clock.TotalMS() }

// PhaseMS returns the simulated cost charged to one ingest phase —
// PhaseTrainCMDN isolates the warm-refresh saving from the labelling
// cost, which no refresh policy can reduce.
func (g *Ingestor) PhaseMS(ph simclock.Phase) float64 { return g.clock.PhaseMS(ph) }

// Stats returns the ingestion counters.
func (g *Ingestor) Stats() Stats { return g.stats }

// optFor is the segment's Phase 1 configuration: the base options with
// the per-segment seed derivation Index.Extend uses (Seed^lo).
func (g *Ingestor) optFor(lo int) phase1.Options {
	opt := g.cfg.Ingest
	opt.Seed = opt.Seed ^ uint64(lo)
	return opt
}

// segView returns the ingest view [g.segLo, g.segLo+span): the prefix
// of the feed for the very first footage (so the artifact carries the
// camera's name), a slice otherwise.
func (g *Ingestor) segView(span int) (video.Source, error) {
	if g.segLo == 0 {
		return video.Prefix(g.src, span)
	}
	return video.Slice(g.src, g.segLo, g.segLo+span)
}

// openSegment fixes the next segment's labelling plan. The planned span
// is always SegmentFrames; a segment that seals or force-closes short
// re-plans for its actual length.
func (g *Ingestor) openSegment() error {
	g.segLo = g.ingested
	g.segSpan = g.cfg.SegmentFrames
	avail := g.src.NumFrames() - g.segLo
	if avail <= 0 {
		// The feed has no room for another segment; Seal handles the end.
		g.segSrc = nil
		g.segPlan = phase1.SamplePlan{}
		g.eager = nil
		g.wanted = nil
		g.wantPos = 0
		return nil
	}
	viewSpan := g.segSpan
	if viewSpan > avail {
		viewSpan = avail
	}
	view, err := g.segView(viewSpan)
	if err != nil {
		return err
	}
	plan, err := phase1.PlanSamples(g.segSpan, g.optFor(g.segLo))
	if err != nil {
		return fmt.Errorf("stream: planning segment at frame %d: %w", g.segLo, err)
	}
	g.segSrc = view
	g.segPlan = plan
	g.eager = make(map[int]float64, len(plan.TrainIdx)+len(plan.HoldIdx))
	g.wanted = g.wanted[:0]
	g.wanted = append(g.wanted, plan.TrainIdx...)
	g.wanted = append(g.wanted, plan.HoldIdx...)
	sort.Ints(g.wanted)
	g.wantPos = 0
	return nil
}

// labelAvailable labels every planned frame that has arrived but is not
// yet labelled — the chunk-granular half of Phase 1. One oracle batch
// per call, so the charge lands on this chunk.
func (g *Ingestor) labelAvailable() {
	if g.segSrc == nil {
		return
	}
	avail := g.frontier - g.segLo
	if max := g.segSrc.NumFrames(); avail > max {
		avail = max
	}
	var due []int
	for g.wantPos < len(g.wanted) && g.wanted[g.wantPos] < avail {
		due = append(due, g.wanted[g.wantPos])
		g.wantPos++
	}
	if len(due) == 0 {
		return
	}
	opt := g.optFor(g.segLo)
	scores := phase1.Label(g.segSrc, g.udf, due, opt, g.clock)
	for k, f := range due {
		g.eager[f] = scores[k]
	}
	g.stats.EagerLabels += len(due)
}

// Append delivers the next chunk of the feed: frames
// [frontier, frontier+frames) become visible. Planned samples among
// them are labelled immediately; every time the open segment reaches
// its planned span it closes — model refresh, difference detection,
// artifact append — and due followers are evaluated.
func (g *Ingestor) Append(frames int) error {
	if g.sealed {
		return errors.New("stream: ingestor is sealed")
	}
	if frames <= 0 {
		return fmt.Errorf("stream: chunk of %d frames", frames)
	}
	if g.frontier+frames > g.src.NumFrames() {
		return fmt.Errorf("stream: chunk to frame %d exceeds the %d-frame feed",
			g.frontier+frames, g.src.NumFrames())
	}
	g.frontier += frames
	g.chunkSeq++
	g.stats.Chunks++
	g.labelAvailable()
	for g.frontier-g.segLo >= g.segSpan && g.segSrc != nil {
		if err := g.closeSegment(g.segSpan); err != nil {
			return err
		}
	}
	// Bounded staleness: a follower too many chunks behind the frontier
	// forces the open segment closed early so its next answer reflects
	// the footage that already arrived — once the segment holds
	// minForcedSegment frames; until then the follower waits.
	if g.staleFollower() && g.frontier-g.segLo >= minForcedSegment {
		if err := g.closeSegment(g.frontier - g.segLo); err != nil {
			return err
		}
		g.stats.ForcedCloses++
	}
	return nil
}

func (g *Ingestor) staleFollower() bool {
	for _, f := range g.followers {
		if f.maxLag > 0 && g.chunkSeq-f.lastEvalChunk >= f.maxLag {
			return true
		}
	}
	return false
}

// minForcedSegment is the floor of a segment a follower's staleness
// bound closes early: phase1's minimum (phase1.SampleCounts labels half
// of a short segment and needs five labels), whatever the options.
const minForcedSegment = 10

// ErrTailNotIngested marks a Seal that left footage out of the
// artifact: the frames past the last segment boundary were too few for
// Phase 1 to plan a labelled sample from (phase1.SampleCounts).
var ErrTailNotIngested = errors.New("tail not ingested")

// Seal ends the stream: the final partial segment (if any) is ingested,
// every follower is brought to the converged answer over the ingested
// frames, and the close's feature block is released. The ingestor
// accepts no more chunks. A tail too short for Phase 1 is left out:
// the stream seals at its last closed segment, the followers converge
// over the frames before the tail, and the error — ErrTailNotIngested,
// naming the tail's frames — reports what was dropped.
func (g *Ingestor) Seal() error {
	if g.sealed {
		return errors.New("stream: ingestor already sealed")
	}
	var tailErr error
	if g.frontier > g.ingested {
		tail := g.frontier - g.segLo
		if _, _, err := phase1.SampleCounts(tail, g.optFor(g.segLo)); err != nil {
			tailErr = fmt.Errorf("stream: sealed at frame %d: %w: frames [%d, %d): %w",
				g.ingested, ErrTailNotIngested, g.segLo, g.frontier, err)
		} else if err := g.closeSegment(tail); err != nil {
			return err
		}
	}
	g.sealed = true
	g.block = nil
	return errors.Join(tailErr, g.evaluateFollowers(true))
}

// closeSegment ingests the open segment at length spanL (the planned
// span, or shorter when sealing or force-closing), appends its artifact
// and evaluates followers.
func (g *Ingestor) closeSegment(spanL int) error {
	opt := g.optFor(g.segLo)
	view, plan := g.segSrc, g.segPlan
	if spanL != g.segSpan {
		// Closed short of the planned span: the labelling plan is a
		// function of the segment length, so re-plan for the actual
		// length and reuse every overlapping eager label (the oracle is
		// deterministic per frame — only the charge for the shortfall is
		// new; eager labels outside the new plan are sunk cost).
		var err error
		if view, err = g.segView(spanL); err != nil {
			return err
		}
		if plan, err = phase1.PlanSamples(spanL, opt); err != nil {
			return fmt.Errorf("stream: segment at frame %d closed at %d frames: %w", g.segLo, spanL, err)
		}
	}
	// At the planned span every planned frame has arrived and is
	// labelled, so nothing misses and nothing is wasted.
	label := func(ids []int) []float64 {
		var miss []int
		for _, f := range ids {
			if _, ok := g.eager[f]; !ok {
				miss = append(miss, f)
			}
		}
		for k, s := range phase1.Label(view, g.udf, miss, opt, g.clock) {
			g.eager[miss[k]] = s
		}
		scores := make([]float64, len(ids))
		for k, f := range ids {
			scores[k] = g.eager[f]
		}
		return scores
	}
	trainScores := label(plan.TrainIdx)
	holdScores := label(plan.HoldIdx)
	// A plan's frames are distinct and now all labelled; every other
	// eager label of this segment fell outside the plan it closed with.
	g.stats.WastedLabels += len(g.eager) - len(plan.TrainIdx) - len(plan.HoldIdx)
	return g.finishSegment(view, opt, plan, trainScores, holdScores, spanL)
}

// finishSegment trains or refreshes the segment's CMDN, captures the
// segment artifact, merges it, and rolls the stream state forward.
func (g *Ingestor) finishSegment(view video.Source, opt phase1.Options, plan phase1.SamplePlan, trainScores, holdScores []float64, spanL int) error {
	var st *phase1.State
	var hold []cmdn.Sample
	var err error
	workpool.Stage("stream", "segment-close", func() {
		if st, hold, err = g.segmentState(view, opt, plan, trainScores, holdScores); err != nil {
			return
		}
		art := engine.Capture(st, g.udf, opt.Cost, g.clock)
		if g.art == nil {
			g.art = art
		} else {
			err = g.art.Append(art, g.segLo)
		}
	})
	if err != nil {
		return err
	}
	g.ingested = g.segLo + spanL
	g.prevProxy = st.Proxy
	g.updateReservoir(hold)
	g.segIdx++
	g.stats.Segments++
	if err := g.openSegment(); err != nil {
		return err
	}
	return g.evaluateFollowers(false)
}

// segmentState produces the segment's phase1.State in the pass-first
// order: one detector pass decodes every frame of the segment and
// writes the features of its planned and retained frames into the
// ingestor's block; the drift check, the warm refresh or the full grid
// train read their samples as views of it, and the retained frames are
// predicted from their rows. A warm refresh of the previous segment's
// model is taken when allowed, a full grid train otherwise. Returns the
// holdout samples when a warm start was attempted, so the reservoir can
// keep them; they are views of the block, valid until the next close.
func (g *Ingestor) segmentState(view video.Source, opt phase1.Options, plan phase1.SamplePlan, trainScores, holdScores []float64) (*phase1.State, []cmdn.Sample, error) {
	pass, err := phase1.RunPass(view, opt, plan, g.block, g.clock)
	if err != nil {
		return nil, nil, err
	}
	g.block = pass.Block()
	train := pass.Samples(plan.TrainIdx, trainScores)
	hold := pass.Samples(plan.HoldIdx, holdScores)

	attempted := g.prevProxy != nil && g.cfg.Warm
	warm := attempted
	if warm {
		if g.cfg.DriftNLL < 0 || g.prevProxy.DriftNLL(hold) > g.prevProxy.HoldoutNLL()+g.cfg.DriftNLL {
			warm = false
			g.stats.DriftFallbacks++
		}
	}
	var proxy *cmdn.Proxy
	if warm {
		calib := make([]cmdn.Sample, 0, len(g.reservoir)+len(hold))
		calib = append(calib, g.reservoir...)
		calib = append(calib, hold...)
		proxy, err = cmdn.Refresh(g.prevProxy, train, hold, calib,
			cmdn.RefreshConfig{Seed: opt.Seed},
			opt.Proxy, g.clock, opt.Cost)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: warm refresh at frame %d: %w", g.segLo, err)
		}
		g.stats.WarmRefreshes++
	} else {
		g.stats.FullTrains++
		if proxy, err = phase1.TrainProxy(view, opt, train, hold, g.clock); err != nil {
			return nil, nil, err
		}
	}
	st := pass.Assemble(proxy, plan, trainScores, holdScores)
	if !attempted {
		hold = nil
	}
	return st, hold, nil
}

// updateReservoir folds a closed segment's holdout samples into the
// calibration reservoir with classic reservoir sampling, randomized by
// a stream derived from the base seed and the segment index — the
// reservoir contents are a pure function of the segment sequence. An
// admitted sample's features are copied out of the block, which the
// next close overwrites — into the storage of the sample it evicts, so
// a full reservoir allocates nothing — and its frame index is made
// feed-global.
func (g *Ingestor) updateReservoir(hold []cmdn.Sample) {
	r := xrand.New(g.cfg.Ingest.Seed).Split("stream/reservoir").SplitIndex(uint64(g.segIdx))
	for _, s := range hold {
		g.resSeen++
		j := len(g.reservoir)
		if j < g.cfg.ReservoirCap {
			g.reservoir = append(g.reservoir, cmdn.Sample{})
		} else if j = r.Intn(g.resSeen); j >= g.cfg.ReservoirCap {
			continue
		}
		dst := &g.reservoir[j]
		dst.Frame, dst.X, dst.Y = g.segLo+s.Frame, append(dst.X[:0], s.X...), s.Y
	}
}
