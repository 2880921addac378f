package everest

import (
	"errors"
	"fmt"

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
	// negative to force a full train at every close even with Warm on;
	// +Inf never falls back. NaN is rejected.
	DriftNLL float64
	// OnDelta, when set, is called synchronously with each answer delta.
	OnDelta func(LiveDelta)
}

// LiveDelta is one continuous top-K update: how the answer changed when
// the ingested footage advanced (see stream.Delta).
type LiveDelta = stream.Delta

// LiveStats counts what a live stream has done: chunks, segment closes
// and how each obtained its CMDN, eager and wasted labels, forced closes
// and follower evaluation groups (see stream.Stats).
type LiveStats = stream.Stats

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
	ing, err := stream.NewIngestor(src, udf, stream.Config{
		SegmentFrames: live.SegmentFrames,
		Warm:          live.Warm,
		DriftNLL:      live.DriftNLL,
		Ingest:        cfg.Plan().Ingest,
	})
	if err != nil {
		return nil, fmt.Errorf("everest: opening live stream: %w", err)
	}
	ls := &LiveStream{ing: ing}
	if ls.primary, err = ls.Follow(cfg, live.MaxLagChunks, live.OnDelta); err != nil {
		return nil, err
	}
	return ls, nil
}

// LiveFollower is a continuous query registered on a LiveStream with
// Follow (the stream's own query is its primary follower): its own
// top-K plan kept answered as the one shared feed advances. Followers
// due at the same segment close evaluate as one coalesced scheduler
// group, sharing confirmations. Deltas returns every answer update so
// far and Answer the latest (see stream.Follower).
type LiveFollower = stream.Follower

// Follow registers an additional continuous top-K query on the live
// stream — the `SELECT STREAM TOP K …` EQL statement compiles to
// exactly this registration. The new follower shares the stream's
// ingestor, artifact and label cache with the original query and every
// other follower; all followers due at a segment close evaluate as one
// coalesced group. Follow fails once the stream is sealed.
func (ls *LiveStream) Follow(cfg Config, maxLagChunks int, onDelta func(LiveDelta)) (*LiveFollower, error) {
	return ls.ing.Follow(stream.FollowConfig{
		Plan:         cfg.Plan(),
		MaxLagChunks: maxLagChunks,
		OnDelta:      onDelta,
	})
}

// Append delivers the next chunk of the feed: frames more frames of the
// underlying source become visible, eagerly labelled, and any segments
// they complete close (refreshing the model and updating the answer).
func (ls *LiveStream) Append(frames int) error { return ls.ing.Append(frames) }

// Seal ends the feed: a partial open segment closes (re-planned for its
// actual span, reusing eager labels), and the follower is brought to
// the final frontier. No Append may follow. A partial segment too short
// for Phase 1 to sample (under 10 frames) is left out: the stream seals
// at the last closed segment, the followers answer over the frames
// before it, and the error (wrapping ErrTailNotIngested) names the
// dropped frames.
func (ls *LiveStream) Seal() error { return ls.ing.Seal() }

// ErrTailNotIngested is returned (wrapped) by LiveStream.Seal when the
// footage past the last segment boundary was too short to ingest.
var ErrTailNotIngested = stream.ErrTailNotIngested

// Close releases nothing: a stream holds no goroutine between calls.
// It remains only for the benchmark driver, which still calls it.
func (ls *LiveStream) Close() {}

// Frontier is how many frames of the feed have arrived.
func (ls *LiveStream) Frontier() int { return ls.ing.Frontier() }

// IngestMS is the total simulated Phase 1 cost charged so far.
func (ls *LiveStream) IngestMS() float64 { return ls.ing.IngestMS() }

// Deltas returns every answer update delivered so far, in order. The
// slice is the stream's own, not a copy; callers must not modify it.
func (ls *LiveStream) Deltas() []LiveDelta { return ls.primary.Deltas() }

// Answer is the most recent delta, whose IDs, Scores and Confidence are
// the full answer, or nil before the first evaluation.
func (ls *LiveStream) Answer() *LiveDelta { return ls.primary.Answer() }

// Stats reports the stream's ingestion counters.
func (ls *LiveStream) Stats() LiveStats { return ls.ing.Stats() }
