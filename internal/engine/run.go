package engine

import (
	"context"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Run is the one-shot entrypoint: Ingest then Execute, sharing one
// clock (so the outcome carries the full Phase 1 + Phase 2 cost
// breakdown) and one resident worker pool across both stages. The
// returned artifact is the ingest product; callers that want to reuse
// it for further plans may keep it. A non-nil ctx bounds the Phase 2
// loop (cancellation returns ctx.Err()); Phase 1 ingestion runs to
// completion — it is the reusable artifact, not per-query work.
func Run(ctx context.Context, src video.Source, udf vision.UDF, p Plan) (*Artifact, *Outcome, error) {
	clock := simclock.NewClock()
	// One resident worker pool serves the whole query: Phase 1 fan-outs
	// and window aggregation reuse the same goroutines.
	pool := p.WorkerPool()
	if pool != nil {
		defer pool.Close()
	}
	opt := p.Ingest
	opt.Pool = pool
	art, err := Ingest(src, udf, opt, clock)
	if err != nil {
		return nil, nil, err
	}
	out, err := Execute(p, Binding{
		Src:      src,
		UDF:      udf,
		Artifact: art,
		Clock:    clock,
		Pool:     pool,
		Ctx:      ctx,
	})
	if err != nil {
		return nil, nil, err
	}
	return art, out, nil
}
