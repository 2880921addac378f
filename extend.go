package everest

import (
	"errors"
	"fmt"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Extend incrementally ingests footage appended to an indexed video: src
// must be the same camera feed, now longer than when the index was built.
// The appended tail [indexed frames, src frames) runs the engine's full
// Ingest stage — its own sampling, labelling, and a tail-specialized
// CMDN — and the resulting artifact is merged into the index's, exactly
// as the scale-out executor specializes one proxy per shard. Nothing
// already ingested is recomputed, so a nightly append costs Phase 1 of
// the new footage only.
//
// Per-segment specialization is also the honest answer to model drift:
// the paper defers drift handling (§3.1), and scoring tonight's frames
// with a proxy trained on tonight's frames sidesteps it for the batch
// append case.
//
// The returned cost is the tail's simulated ingestion time; it is also
// added to IngestMS.
//
// No query may be in flight on the index while it extends: the merge
// (engine.Artifact.Append) rewrites the artifact's RepOf, Retained,
// Mixtures and Exact without taking the artifact's lock, so a
// concurrent Query, Session or ScriptSession read of the same index
// races with it. Serialize Extend against every reader of the index.
func (ix *Index) Extend(src video.Source, udf vision.UDF, cfg Config) (tailMS float64, err error) {
	if src == nil || udf == nil {
		return 0, errors.New("everest: nil source or UDF")
	}
	if src.Name() != ix.art.Dataset {
		return 0, fmt.Errorf("everest: index was built for %s, not %s", ix.art.Dataset, src.Name())
	}
	if udf.Name() != ix.art.UDFName {
		return 0, fmt.Errorf("everest: index was built for UDF %s, not %s", ix.art.UDFName, udf.Name())
	}
	n := src.NumFrames()
	if n <= ix.art.TotalFrames {
		return 0, fmt.Errorf("everest: source has %d frames, index already covers %d — nothing to append",
			n, ix.art.TotalFrames)
	}
	lo := ix.art.TotalFrames
	tail, err := video.Slice(src, lo, n)
	if err != nil {
		return 0, err
	}
	clock := simclock.NewClock()
	// cfg.Seed ^ lo: a fresh stream per append.
	ingest := cfg.Plan().Ingest
	ingest.Seed = cfg.Seed ^ uint64(lo)
	tailArt, err := engine.Ingest(tail, udf, ingest, clock)
	if err != nil {
		return 0, fmt.Errorf("everest: extending index: %w", err)
	}

	// Merge in global coordinates. The difference detector never links
	// across the append boundary; the first tail frame always starts a new
	// segment, which at worst retains one redundant frame.
	if err := ix.art.Append(tailArt, lo); err != nil {
		return 0, fmt.Errorf("everest: extending index: %w", err)
	}
	ix.info = phase1InfoOf(ix.art.Info)
	tailMS = clock.TotalMS()
	ix.ingestMS += tailMS
	return tailMS, nil
}
