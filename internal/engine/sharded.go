package engine

import (
	"errors"
	"fmt"

	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/workpool"
	"github.com/everest-project/everest/internal/xrand"
)

// ShardInfo reports one shard's Ingest outcome.
type ShardInfo struct {
	// Lo, Hi are the shard's frame range in global coordinates.
	Lo, Hi int
	// Info is the shard's Phase 1 summary.
	Info phase1.Info
	// WallMS is the shard worker's own simulated time.
	WallMS float64
}

// Sharded is the outcome of RunSharded.
type Sharded struct {
	// Artifact is the merged ingest product of all shards, in global
	// frame coordinates.
	Artifact *Artifact
	// Outcome is the plan's answer; its Clock is the BSP wall clock
	// (per-phase maxima over the shard clocks, then the Phase 2 charges).
	Outcome *Outcome
	// WorkerSumMS is the summed simulated Ingest time of all shards — the
	// bill, as opposed to the latency on Outcome.Clock.
	WorkerSumMS float64
	// Shards are the per-shard summaries, in frame order.
	Shards []ShardInfo
}

// RunSharded is Run with the Ingest stage partitioned (the scale-out the
// paper names as future work, §3.5): src is cut into `workers`
// contiguous shards, each ingested concurrently on its own clock with
// its own seed-derived stream and specialized proxy, the shard artifacts
// are folded in frame order with Artifact.Append, and the plan executes
// once over the merged artifact with every confirmation batch spread
// over `workers` accelerator lanes.
//
// Simulated time is bulk-synchronous: the Ingest stage costs the
// per-phase maximum over shards (simclock.Clock.ChargeParallelMax) while
// the bill is their sum, so sharding cuts latency but never the bill —
// each shard pays the sampling floor and trains its own proxy. p must be
// normalized; it is validated here against src.
func RunSharded(src video.Source, udf vision.UDF, p Plan, workers int) (*Sharded, error) {
	if src == nil || udf == nil {
		return nil, errors.New("everest: nil source or UDF")
	}
	if workers < 1 {
		return nil, fmt.Errorf("everest: workers must be ≥ 1, got %d", workers)
	}
	n := src.NumFrames()
	if err := p.ValidateFor(n); err != nil {
		return nil, err
	}
	if n < workers*10 {
		return nil, fmt.Errorf("everest: %d frames are too few for %d workers", n, workers)
	}

	seeds := xrand.New(p.Seed).Split("scaleout/shards")
	opt := p.Ingest
	// All shards run concurrently, so each gets an equal slice of the CPU
	// budget instead of a full fan-out of its own.
	opt.Procs = max(1, workpool.Procs(p.Procs)/workers)
	arts := make([]*Artifact, workers)
	clocks := make([]*simclock.Clock, workers)
	shards := make([]ShardInfo, workers)
	errs := make([]error, workers)
	workpool.ForEach(workers, workers, func(_, i int) {
		lo, hi := i*n/workers, (i+1)*n/workers
		shard, err := video.Slice(src, lo, hi)
		if err != nil {
			errs[i] = err
			return
		}
		sopt := opt
		sopt.Seed = seeds.SplitIndex(uint64(i)).Uint64()
		clocks[i] = simclock.NewClock()
		if arts[i], errs[i] = Ingest(shard, udf, sopt, clocks[i]); errs[i] == nil {
			shards[i] = ShardInfo{Lo: lo, Hi: hi, Info: arts[i].Info, WallMS: clocks[i].TotalMS()}
		}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("everest: shard %d: %w", i, err)
		}
	}

	merged := arts[0]
	for i, art := range arts[1:] {
		if err := merged.Append(art, shards[i+1].Lo); err != nil {
			return nil, fmt.Errorf("everest: shard %d: %w", i+1, err)
		}
	}
	// The shards were ingested under their slice names.
	merged.Dataset = src.Name()

	clock := simclock.NewClock()
	sumMS := clock.ChargeParallelMax(clocks)
	out, err := Execute(p, Binding{Src: src, UDF: udf, Artifact: merged, Clock: clock, lanes: workers})
	if err != nil {
		return nil, err
	}
	return &Sharded{Artifact: merged, Outcome: out, WorkerSumMS: sumMS, Shards: shards}, nil
}
