// Package harness runs the paper's experiments end to end: it builds the
// synthetic stand-in datasets, executes Everest and every baseline,
// computes the evaluation metrics of §4 (speedup, precision, rank
// distance, score error), and returns the rows of each table and figure.
// Both cmd/experiments and the repository's benchmarks drive it.
package harness

import (
	"fmt"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// Scale sizes the experiments.
type Scale struct {
	// Frames per dataset; 0 means each spec's default
	// (PaperFrames/400), capped at FramesCap.
	Frames int
	// FramesCap bounds per-dataset frames; 0 means 60000.
	FramesCap int
	// FullGrid trains the paper's full 12-point hyperparameter grid
	// instead of the 4-point CPU default.
	FullGrid bool
	// Seed offsets all randomness.
	Seed uint64
}

func (s Scale) withDefaults() Scale {
	if s.FramesCap == 0 {
		s.FramesCap = 60000
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

func (s Scale) framesFor(spec video.DatasetSpec) int {
	f := s.Frames
	if f == 0 {
		f = int(float64(spec.PaperFrames) * video.DefaultScale)
	}
	if f > s.FramesCap {
		f = s.FramesCap
	}
	return f
}

// proxyConfig returns the CMDN grid: the full paper grid, or a 4-point
// subset sized for one CPU core (the selection mechanism — holdout NLL
// over a g×h grid — is identical either way).
func (s Scale) proxyConfig() cmdn.Config {
	if s.FullGrid {
		return cmdn.Config{}
	}
	return cmdn.Config{Grid: []cmdn.Hyper{
		{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40},
	}}
}

func (s Scale) everestConfig(k int, thres float64) everest.Config {
	return everest.Config{
		K:         k,
		Threshold: thres,
		Proxy:     s.proxyConfig(),
		Seed:      s.Seed,
	}
}

func scanCostMS(n int, udf vision.UDF, cost simclock.CostModel) float64 {
	return float64(n) * (udf.OracleCostMS(cost) + cost.DecodeMS)
}

// buildDataset instantiates a Table 7 dataset at the scale's size.
func (s Scale) buildDataset(spec video.DatasetSpec) (*video.Synthetic, error) {
	src, err := spec.Build(s.framesFor(spec))
	if err != nil {
		return nil, fmt.Errorf("harness: building %s: %w", spec.Name, err)
	}
	return src, nil
}
