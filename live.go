package everest

import (
	"errors"

	"github.com/everest-project/everest/internal/stream"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// LiveConfig configures a live streaming run opened with OpenLive. The
// query itself (K, threshold, seed, cost model, …) comes from the usual
// Config; LiveConfig holds only the streaming knobs.
type LiveConfig struct {
	// SegmentFrames is the model-refresh granularity: every this many
	// ingested frames the open segment closes, its CMDN refreshes, and
	// the follower re-evaluates. Zero means 1800 (one minute at 30 fps).
	SegmentFrames int
	// Warm enables the incremental CMDN refresh at segment closes:
	// fine-tune the previous segment's model on the new samples, with an
	// automatic fallback to a full grid train when the score
	// distribution drifted. Off, every segment trains the full grid —
	// bit-identical to repeated batch Index.Extend calls at the same
	// boundaries.
	Warm bool
	// MaxLagChunks bounds the follower's staleness: when this many
	// chunks arrive without a new answer, the open segment closes early.
	// Zero means updates at the segment cadence only. A lag bound moves
	// segment boundaries, so the run is no longer bit-identical to
	// batch ingestion of the same footage.
	MaxLagChunks int
	// DriftNLL is the warm-refresh drift tolerance: warm-start only
	// while the previous model's mean NLL on the new segment's holdout
	// stays within this margin of its selection-time holdout NLL. Zero
	// means 0.5; raise it for feeds whose score distribution cycles
	// (the calibration reservoir keeps the guarantee honest), or set it
	// negative to force a full train at every close even with Warm on.
	DriftNLL float64
	// OnDelta, when set, is called synchronously with each answer delta.
	OnDelta func(LiveDelta)
}

// LiveDelta is one continuous top-K update: how the answer changed when
// the ingested footage advanced.
type LiveDelta struct {
	// Seq numbers the deltas from 0; Frontier is the frame count the
	// answer covers.
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

// LiveStats counts what a live stream has done.
type LiveStats struct {
	// Chunks and Segments count Append calls and closed segments.
	Chunks, Segments int
	// WarmRefreshes, FullTrains and DriftFallbacks break down segment
	// closes: warm starts taken, full grid trains, and full trains
	// forced by the drift pre-check.
	WarmRefreshes, FullTrains, DriftFallbacks int
	// EagerLabels counts frames labelled chunk by chunk before their
	// segment closed; WastedLabels the subset a sealed-short segment's
	// re-plan did not reuse.
	EagerLabels, WastedLabels int
	// ForcedCloses counts segments closed early by the staleness bound;
	// Deltas counts answer updates delivered.
	ForcedCloses, Deltas int
}

// LiveStream is the public face of live ingestion: an append-only
// camera feed ingested chunk by chunk with one continuous top-K
// follower attached. Not safe for concurrent use; one goroutine owns
// it. See DESIGN.md "Streaming ingestion & incremental top-K".
type LiveStream struct {
	ing     *stream.Ingestor
	primary *LiveFollower
}

// OpenLive starts live ingestion of src: the feed is modelled as a
// growing prefix of src, delivered by Append calls. The query compiled
// from cfg is kept continuously answered by the stream's primary
// follower, registered exactly as Follow registers any other; deltas
// arrive via live.OnDelta and accumulate in Deltas.
func OpenLive(src video.Source, udf vision.UDF, cfg Config, live LiveConfig) (*LiveStream, error) {
	if src == nil || udf == nil {
		return nil, errors.New("everest: nil source or UDF")
	}
	cfg = cfg.withDefaults()
	mode := stream.RefreshFull
	if live.Warm {
		mode = stream.RefreshAuto
	}
	ing, err := stream.NewIngestor(src, udf, stream.Config{
		SegmentFrames: live.SegmentFrames,
		Refresh:       mode,
		DriftNLL:      live.DriftNLL,
		Ingest:        cfg.phase1Options(cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	ls := &LiveStream{ing: ing}
	if ls.primary, err = ls.Follow(cfg, live.MaxLagChunks, live.OnDelta); err != nil {
		return nil, err
	}
	return ls, nil
}

func liveDeltaOf(d stream.Delta) LiveDelta {
	return LiveDelta{
		Seq:        d.Seq,
		Frontier:   d.Frontier,
		Entered:    d.Change.Entered,
		Left:       d.Change.Left,
		Reordered:  d.Change.Reordered,
		IDs:        d.IDs,
		Scores:     d.Scores,
		Confidence: d.Confidence,
		QueryMS:    d.QueryMS,
	}
}

// LiveFollower is an additional continuous query registered on a
// LiveStream with Follow: its own top-K plan kept answered as the one
// shared feed advances. Followers due at the same segment close
// evaluate as one coalesced scheduler group, sharing confirmations.
type LiveFollower struct {
	fol *stream.Follower
}

// Deltas returns every answer update the follower has received.
func (lf *LiveFollower) Deltas() []LiveDelta {
	ds := lf.fol.Deltas()
	out := make([]LiveDelta, len(ds))
	for i, d := range ds {
		out[i] = liveDeltaOf(d)
	}
	return out
}

// Answer is the follower's most recent full answer, or nil before its
// first evaluation.
func (lf *LiveFollower) Answer() *LiveDelta {
	ds := lf.fol.Deltas()
	if len(ds) == 0 {
		return nil
	}
	d := liveDeltaOf(ds[len(ds)-1])
	return &d
}

// Follow registers an additional continuous top-K query on the live
// stream — the `SELECT STREAM TOP K …` EQL statement compiles to
// exactly this registration. The new follower shares the stream's
// ingestor, artifact and label cache with the original query and every
// other follower; all followers due at a segment close evaluate as one
// coalesced group. Follow fails once the stream is sealed.
func (ls *LiveStream) Follow(cfg Config, maxLagChunks int, onDelta func(LiveDelta)) (*LiveFollower, error) {
	cfg = cfg.withDefaults()
	var cb func(stream.Delta)
	if onDelta != nil {
		cb = func(d stream.Delta) { onDelta(liveDeltaOf(d)) }
	}
	fol, err := ls.ing.Follow(stream.FollowConfig{
		Plan:         cfg.plan(),
		MaxLagChunks: maxLagChunks,
		OnDelta:      cb,
	})
	if err != nil {
		return nil, err
	}
	return &LiveFollower{fol: fol}, nil
}

// Append delivers the next chunk of the feed: frames more frames of the
// underlying source become visible, eagerly labelled, and any segments
// they complete close (refreshing the model and updating the answer).
func (ls *LiveStream) Append(frames int) error { return ls.ing.Append(frames) }

// Seal ends the feed: a partial open segment closes (re-planned for its
// actual span, reusing eager labels), and the follower is brought to
// the final frontier. No Append may follow.
func (ls *LiveStream) Seal() error { return ls.ing.Seal() }

// Close releases nothing: a stream holds no goroutine between calls.
// It remains only for the benchmark driver, which still calls it.
func (ls *LiveStream) Close() {}

// Frontier is how many frames of the feed have arrived.
func (ls *LiveStream) Frontier() int { return ls.ing.Frontier() }

// IngestMS is the total simulated Phase 1 cost charged so far.
func (ls *LiveStream) IngestMS() float64 { return ls.ing.IngestMS() }

// Deltas returns every answer update delivered so far, in order.
func (ls *LiveStream) Deltas() []LiveDelta { return ls.primary.Deltas() }

// Answer is the most recent full answer as a LiveDelta snapshot, or nil
// before the first evaluation.
func (ls *LiveStream) Answer() *LiveDelta { return ls.primary.Answer() }

// Stats reports the stream's ingestion counters.
func (ls *LiveStream) Stats() LiveStats {
	st := ls.ing.Stats()
	return LiveStats{
		Chunks:         st.Chunks,
		Segments:       st.Segments,
		WarmRefreshes:  st.WarmRefreshes,
		FullTrains:     st.FullTrains,
		DriftFallbacks: st.DriftFallbacks,
		EagerLabels:    st.EagerLabels,
		WastedLabels:   st.WastedLabels,
		ForcedCloses:   st.ForcedCloses,
		Deltas:         len(ls.primary.fol.Deltas()),
	}
}
