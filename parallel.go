package everest

import (
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// ParallelResult is the outcome of RunParallel: a guaranteed Top-K plus
// the scale-out accounting (wall-clock under the BSP model and the total
// paid accelerator time, which grows with the worker count).
type ParallelResult struct {
	// Result is the guaranteed Top-K with the BSP wall-clock attached.
	Result
	// Workers echoes the worker count.
	Workers int
	// WorkerSumMS is the summed Phase 1 accelerator time across workers —
	// the bill, as opposed to Result.Clock's latency.
	WorkerSumMS float64
	// Shards summarizes each worker's Phase 1.
	Shards []engine.ShardInfo
}

// RunParallel executes a Top-K query with workers-way scale-out: Phase 1
// runs partitioned across per-shard specialized proxies on parallel
// simulated accelerators, and Phase 2 cleans batches spread over the same
// accelerators (the RAM3S-style framework the paper names as future work,
// §3.5). It is the engine's sharded stage (engine.RunSharded) behind the
// same Config → plan compilation every other entrypoint uses, so retries,
// deadlines, degradation, the mux and the ablation knobs apply unchanged.
// workers == 1 is semantically equivalent to Run up to sampling
// randomness.
func RunParallel(src video.Source, udf vision.UDF, cfg Config, workers int) (*ParallelResult, error) {
	plan := cfg.Plan()
	sh, err := engine.RunSharded(src, udf, plan, workers)
	if err != nil {
		return nil, err
	}
	// Each shard selected its own grid point, so the merged report
	// carries the summed sample counts and no single Hyper/HoldoutNLL.
	in := sh.Artifact.Info
	info := Phase1Info{
		TotalFrames:    in.TotalFrames,
		TrainSamples:   in.TrainSamples,
		HoldoutSamples: in.HoldoutSamples,
		Retained:       in.Retained,
	}
	return &ParallelResult{
		Result:      *resultOf(sh.Outcome, plan, info),
		Workers:     workers,
		WorkerSumMS: sh.WorkerSumMS,
		Shards:      sh.Shards,
	}, nil
}
