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
	// open segment early so the next evaluation reflects the frontier.
	// Zero means no bound — the follower updates at the segment cadence
	// only. Forced closes change segment boundaries, so a stream with a
	// lag bound is NOT bit-identical to batch ingestion of the same
	// footage (the converged scores still agree; membership tie-breaks
	// may not).
	MaxLagChunks int
	// OnDelta, when set, is called synchronously with each delta.
	OnDelta func(Delta)
}

// Delta is one continuous-query update: how the follower's top-K answer
// changed when the artifact advanced.
type Delta struct {
	// Seq numbers the follower's deltas from 0.
	Seq int
	// Frontier is the frame count the answer covers.
	Frontier int
	// Change is the membership/rank difference from the previous
	// answer; empty when footage arrived but the answer stood.
	Change engine.AnswerDelta
	// IDs and Scores snapshot the full answer (oracle-confirmed).
	IDs []int
	// Scores holds the confirmed score of each answer frame.
	Scores []float64
	// Confidence is the result's probabilistic guarantee.
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

	prev          *engine.Outcome
	prevFrames    int
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

// Deltas returns every delta emitted so far, oldest first.
func (f *Follower) Deltas() []Delta { return f.deltas }

// Answer returns the follower's latest full answer (nil before the
// first evaluation).
func (f *Follower) Answer() *engine.Outcome { return f.prev }

// evaluateFollowers runs every follower whose answer is behind the
// artifact as one scheduler group. With force (Seal), followers that
// have never evaluated run even if no footage was ingested since they
// registered.
func (g *Ingestor) evaluateFollowers(force bool) error {
	if g.art == nil {
		return nil
	}
	n := g.art.TotalFrames
	var due []*Follower
	for _, f := range g.followers {
		if f.prevFrames == n && !(force && f.prev == nil) {
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
		Change:     engine.DiffOutcome(f.prev, out),
		IDs:        out.IDs,
		Scores:     out.Scores,
		Confidence: out.Confidence,
	}
	if out.Clock != nil {
		d.QueryMS = out.Clock.TotalMS()
	}
	f.prev = out
	f.prevFrames = frames
	f.lastEvalChunk = chunk
	f.deltas = append(f.deltas, d)
	if f.onDelta != nil {
		f.onDelta(d)
	}
}
