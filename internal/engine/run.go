package engine

import (
	"context"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Run is the one-shot entrypoint: Ingest then Execute, sharing one
// clock (so the outcome carries the full Phase 1 + Phase 2 cost
// breakdown). Ingest fans out on transient workers bounded by
// p.Ingest.Procs; Execute runs on the calling goroutine. The returned
// artifact is the ingest product; callers that want to reuse it for
// further plans may keep it. A non-nil ctx bounds the Phase 2 loop
// (cancellation returns ctx.Err()); Phase 1 ingestion runs to
// completion — it is the reusable artifact, not per-query work.
func Run(ctx context.Context, src video.Source, udf vision.UDF, p Plan) (*Artifact, *Outcome, error) {
	clock := simclock.NewClock()
	art, err := Ingest(src, udf, p.Ingest, clock)
	if err != nil {
		return nil, nil, err
	}
	out, err := Execute(p, Binding{
		Src:      src,
		UDF:      udf,
		Artifact: art,
		Clock:    clock,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, nil, err
	}
	return art, out, nil
}
