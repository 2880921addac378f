package stream

import (
	"errors"
	"fmt"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/video"
)

// FollowConfig registers a continuous top-K follower.
type FollowConfig struct {
	// Plan is the Phase 2 query plan to keep answered (compile it with
	// engine.NewPlan, or via the public Config.plan path). The plan's
	// ingest options are ignored — the ingestor owns Phase 1.
	Plan engine.Plan
	// MaxLagChunks is the staleness bound: when this many chunks arrive
	// without the follower seeing a new answer, the ingestor closes the
	// open segment early so the next evaluation reflects the frontier,
	// as soon as the segment holds the 10 frames Phase 1 needs (until
	// then the follower waits). Zero means no bound — the follower
	// updates at the segment cadence only. Forced closes change segment
	// boundaries, so a stream with a lag bound is NOT bit-identical to
	// batch ingestion of the same footage (the converged scores still
	// agree; membership tie-breaks may not).
	MaxLagChunks int
	// OnDelta, when set, is called synchronously with each delta.
	OnDelta func(Delta)
}

// Delta is one continuous top-K update: how a follower's answer
// changed when the ingested footage advanced.
type Delta struct {
	// Seq numbers the follower's deltas from 0; Frontier is the frame
	// count the answer covers.
	Seq, Frontier int
	// Entered and Reordered list frames in new-rank order; Left in
	// former-rank order. All empty when footage arrived but the answer
	// stood.
	Entered, Left, Reordered []int
	// IDs and Scores snapshot the full oracle-confirmed answer;
	// Confidence is its probabilistic guarantee.
	IDs        []int
	Scores     []float64
	Confidence float64
	// QueryMS is this evaluation's simulated Phase 2 cost.
	QueryMS float64
}

// Follower is a registered continuous query. Its deltas arrive via the
// OnDelta callback and accumulate for Deltas(). Not safe for concurrent
// use with the owning Ingestor.
type Follower struct {
	ing     *Ingestor
	plan    engine.Plan
	maxLag  int
	onDelta func(Delta)

	lastEvalChunk int
	deltas        []Delta
}

// Follow registers a continuous top-K follower. Followers evaluate as
// segments close; concurrent followers due at the same close are
// submitted as one coalesced scheduler group over the ingestor's
// private label cache, sharing confirmation batches.
func (g *Ingestor) Follow(cfg FollowConfig) (*Follower, error) {
	if g.sealed {
		return nil, errors.New("stream: ingestor is sealed")
	}
	plan, err := engine.NewPlan(cfg.Plan)
	if err != nil {
		return nil, fmt.Errorf("stream: follower plan: %w", err)
	}
	if cfg.MaxLagChunks < 0 {
		return nil, fmt.Errorf("stream: negative staleness bound %d", cfg.MaxLagChunks)
	}
	f := &Follower{
		ing:           g,
		plan:          plan,
		maxLag:        cfg.MaxLagChunks,
		onDelta:       cfg.OnDelta,
		lastEvalChunk: g.chunkSeq,
	}
	g.followers = append(g.followers, f)
	return f, nil
}

// Deltas returns every delta emitted so far, oldest first. The slice is
// the follower's own; callers must not modify it.
func (f *Follower) Deltas() []Delta { return f.deltas }

// Answer returns the follower's latest delta, whose IDs, Scores and
// Confidence are its full answer (nil before the first evaluation).
func (f *Follower) Answer() *Delta {
	if len(f.deltas) == 0 {
		return nil
	}
	return &f.deltas[len(f.deltas)-1]
}

// evaluateFollowers runs every follower whose answer is behind the
// artifact (or that has never answered) as one scheduler group. With
// force (Seal), a follower whose plan the sealed footage cannot satisfy
// is an error rather than a wait.
func (g *Ingestor) evaluateFollowers(force bool) error {
	if g.art == nil {
		return nil
	}
	n := g.art.TotalFrames
	var due []*Follower
	for _, f := range g.followers {
		if a := f.Answer(); a != nil && a.Frontier == n {
			continue
		}
		// A plan the footage cannot satisfy yet (window longer than the
		// stream, fewer windows than K, or for a frame plan fewer
		// retained frames than K) waits for more chunks.
		err := f.plan.ValidateFor(n)
		if r := len(g.art.Retained); err == nil && !f.plan.Window.Enabled() && f.plan.K > r {
			err = fmt.Errorf("everest: only %d retained frames but K=%d", r, f.plan.K)
		}
		if err != nil {
			if force {
				return fmt.Errorf("stream: follower plan at sealed frontier %d: %w", n, err)
			}
			continue
		}
		due = append(due, f)
	}
	if len(due) == 0 {
		return nil
	}
	src, err := video.Prefix(g.src, n)
	if err != nil {
		return err
	}
	plans := make([]engine.Plan, len(due))
	binds := make([]engine.Binding, len(due))
	for i, f := range due {
		plans[i] = f.plan
		binds[i] = engine.Binding{Src: src, UDF: g.udf, Artifact: g.art}
	}
	g.stats.Evaluations++
	outs, err := g.sched.SubmitGroup(plans, binds)
	if err != nil {
		return fmt.Errorf("stream: follower evaluation at frame %d: %w", n, err)
	}
	for i, f := range due {
		f.deliver(outs[i], n, g.chunkSeq)
	}
	return nil
}

func (f *Follower) deliver(out *engine.Outcome, frames, chunk int) {
	d := Delta{
		Seq:        len(f.deltas),
		Frontier:   frames,
		IDs:        out.IDs,
		Scores:     out.Scores,
		Confidence: out.Confidence,
		QueryMS:    out.Clock.TotalMS(),
	}
	var prev []int
	if a := f.Answer(); a != nil {
		prev = a.IDs
	}
	d.Entered, d.Left, d.Reordered = diffAnswers(prev, out.IDs)
	f.lastEvalChunk = chunk
	f.deltas = append(f.deltas, d)
	if f.onDelta != nil {
		f.onDelta(d)
	}
}

// diffAnswers compares two ranked answers by membership and rank only:
// Entered lists the frames of next not in prev and Reordered those in
// both whose rank changed, both in next's rank order; Left lists the
// frames of prev not in next, in prev's rank order. Score refinements
// that leave the ranking intact produce no change. A nil prev means no
// answer yet: every frame of next enters.
func diffAnswers(prev, next []int) (entered, left, reordered []int) {
	rankNext := make(map[int]int, len(next))
	for r, f := range next {
		rankNext[f] = r
	}
	rankPrev := make(map[int]int, len(prev))
	for r, f := range prev {
		rankPrev[f] = r
		if _, ok := rankNext[f]; !ok {
			left = append(left, f)
		}
	}
	for r, f := range next {
		if pr, ok := rankPrev[f]; !ok {
			entered = append(entered, f)
		} else if pr != r {
			reordered = append(reordered, f)
		}
	}
	return entered, left, reordered
}
