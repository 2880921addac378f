package everest

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

const goldenScaleoutPath = "testdata/golden_scaleout.json"

// goldenShard is one worker's Phase 1 summary as RunParallel reports it.
type goldenShard struct {
	Lo     int         `json:"lo"`
	Hi     int         `json:"hi"`
	Info   phase1.Info `json:"info"`
	WallMS float64     `json:"wall_ms"`
}

// goldenParallel is the serializable projection of a ParallelResult:
// the Top-K answer with its BSP wall clock, plus the scale-out bill and
// the per-shard summaries.
type goldenParallel struct {
	goldenResult
	WorkerSumMS float64       `json:"worker_sum_ms"`
	Shards      []goldenShard `json:"shards"`
}

func goldenParallelOf(res *ParallelResult) goldenParallel {
	g := goldenParallel{goldenResult: goldenOf(&res.Result), WorkerSumMS: res.WorkerSumMS}
	for _, sh := range res.Shards {
		g.Shards = append(g.Shards, goldenShard{Lo: sh.Lo, Hi: sh.Hi, Info: sh.Info, WallMS: sh.WallMS})
	}
	return g
}

// TestGoldenScaleout locks RunParallel against a snapshot captured
// before scale-out became an engine stage: workers {1,2,3,4} × frame /
// tumbling / sliding window queries, each at Procs ∈ {1, 2, 8}, must
// reproduce the committed IDs, scores, confidence, counters, per-phase
// BSP clock, worker bill and per-shard summaries byte for byte. The
// window size divides no shard length, so windows straddle every shard
// boundary.
func TestGoldenScaleout(t *testing.T) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(3000)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	shapes := []struct {
		name           string
		window, stride int
	}{
		{"frame", 0, 0},
		{"tumbling35", 35, 0},
		{"sliding70by35", 70, 35},
	}

	got := make(map[string]goldenParallel)
	for _, workers := range []int{1, 2, 3, 4} {
		for _, shape := range shapes {
			name := fmt.Sprintf("%s-workers%d", shape.name, workers)
			cfg := goldenCfg(10)
			cfg.Threshold = 0.99
			cfg.MinSamples = 150
			cfg.Window, cfg.Stride = shape.window, shape.stride
			for _, procs := range goldenProcs {
				cfg.Procs = procs
				res, err := RunParallel(src, udf, cfg, workers)
				if err != nil {
					t.Fatalf("%s procs=%d: %v", name, procs, err)
				}
				g := goldenParallelOf(res)
				if first, ok := got[name]; !ok {
					got[name] = g
				} else if !reflect.DeepEqual(g, first) {
					t.Fatalf("%s: procs=%d diverged from procs=%d", name, procs, goldenProcs[0])
				}
			}
		}
	}

	checkGolden(t, goldenScaleoutPath, got)
}
