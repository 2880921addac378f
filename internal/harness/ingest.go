package harness

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// IngestRow compares end-to-end queries against ingestion-time indexing
// (Focus-style offline Phase 1, which the paper's §4.2 discussion
// anticipates) for a workload of several queries on one video.
type IngestRow struct {
	Dataset string
	// Queries is the number of Top-K queries in the workload.
	Queries int
	// FreshMS is the total simulated cost running each query end to end.
	FreshMS float64
	// IngestMS is the one-off index build cost.
	IngestMS float64
	// IndexedMS is the total Phase-2-only cost of the indexed queries.
	IndexedMS float64
	// Breakeven is the workload size at which indexing wins.
	Breakeven int
}

// IngestionAmortization measures, per dataset, the cost of a mixed
// workload (varying K) with and without an ingestion-time index.
func IngestionAmortization(scale Scale, thres float64) ([]IngestRow, error) {
	scale = scale.withDefaults()
	ks := []int{5, 25, 50, 75}
	var rows []IngestRow
	for _, spec := range video.CountingDatasets() {
		src, err := scale.buildDataset(spec)
		if err != nil {
			return nil, err
		}
		udf := vision.CountUDF{Class: src.TargetClass()}
		truth := metrics.FrameTruth(src, udf)

		var freshMS float64
		for _, k := range ks {
			cfg := scale.everestConfig(boundK(k, src.NumFrames()/10), thres)
			res, err := everest.Run(src, udf, cfg)
			if err != nil {
				return nil, err
			}
			freshMS += res.Clock.TotalMS()
		}

		ixCfg := scale.everestConfig(1, thres)
		ix, err := everest.BuildIndex(src, udf, ixCfg)
		if err != nil {
			return nil, err
		}
		var indexedMS float64
		for _, k := range ks {
			cfg := scale.everestConfig(boundK(k, src.NumFrames()/10), thres)
			res, err := ix.Query(src, udf, cfg)
			if err != nil {
				return nil, err
			}
			indexedMS += res.Clock.TotalMS()
			// The guarantee must survive the indexing path.
			top := metrics.TrueTopK(truth, cfg.K)
			q := metrics.Evaluate(res.IDs, func(i int) float64 { return truth[i].Score }, top)
			if q.ScoreError > 3 {
				return nil, fmt.Errorf("harness: indexed query on %s K=%d degraded (score error %.2f)",
					spec.Name, cfg.K, q.ScoreError)
			}
		}

		// Break-even: smallest q with ingest + q·avgIndexed < q·avgFresh.
		avgFresh := freshMS / float64(len(ks))
		avgIndexed := indexedMS / float64(len(ks))
		breakeven := -1
		if avgFresh > avgIndexed {
			breakeven = int(ix.IngestMS()/(avgFresh-avgIndexed)) + 1
		}
		rows = append(rows, IngestRow{
			Dataset:   spec.Name,
			Queries:   len(ks),
			FreshMS:   freshMS,
			IngestMS:  ix.IngestMS(),
			IndexedMS: indexedMS,
			Breakeven: breakeven,
		})
	}
	return rows, nil
}
