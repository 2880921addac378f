package everest

import (
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// resolvedAnswer is what a query's defaults can move: the answer, its
// guarantee, the Phase 2 counters and the simulated bill by phase.
type resolvedAnswer struct {
	IDs        []int
	Scores     []float64
	Confidence float64
	Stride     int
	Stats      any
	Clock      []simclock.PhaseShare
}

func answerOf(res *Result) resolvedAnswer {
	return resolvedAnswer{res.IDs, res.Scores, res.Confidence, res.WindowStride, res.EngineStats, res.Clock.Breakdown()}
}

// TestDefaultsResolveOnceOnEveryPath: a Config that leaves the
// threshold, batch size, window sampling fraction, window stride and
// cost model zero runs exactly as one that spells their defaults out
// (0.9, 8, 0.1, tumbling, simclock.Default()) — the same IDs, scores,
// confidence, Phase 2 counters and per-phase charges — through Run,
// Index.Query, Session.Query, RunParallel and an OpenLive follower, for
// a frame and a window query. Each default is resolved in one place
// that every path goes through.
func TestDefaultsResolveOnceOnEveryPath(t *testing.T) {
	src := testSource(t, 2400, 23)
	udf := vision.CountUDF{Class: video.ClassCar}
	frame := smallCfg(5)
	frame.Threshold = 0
	frame.MinSamples = 200
	window := frame
	window.K, window.Window = 3, 30
	spelled := func(c Config) Config {
		c.Threshold, c.BatchSize, c.WindowSampleFrac, c.Cost = 0.9, 8, 0.1, simclock.Default()
		if c.Window > 0 {
			c.Stride = c.Window
		}
		return c
	}

	paths := map[string]func(t *testing.T, frame, window Config) []any{
		"run": func(t *testing.T, frame, window Config) []any {
			var out []any
			for _, cfg := range []Config{frame, window} {
				res, err := Run(src, udf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answerOf(res))
			}
			return out
		},
		"index+session": func(t *testing.T, frame, window Config) []any {
			ix, err := BuildIndex(src, udf, frame)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := NewSession(ix, src, udf)
			if err != nil {
				t.Fatal(err)
			}
			out := []any{ix.Info(), ix.IngestMS()}
			for _, cfg := range []Config{frame, window} {
				res, err := ix.Query(src, udf, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answerOf(res))
				if res, err = sess.Query(cfg); err != nil {
					t.Fatal(err)
				}
				out = append(out, answerOf(res))
			}
			return out
		},
		"parallel": func(t *testing.T, frame, window Config) []any {
			var out []any
			for _, cfg := range []Config{frame, window} {
				res, err := RunParallel(src, udf, cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, answerOf(&res.Result), res.WorkerSumMS)
			}
			return out
		},
		"live": func(t *testing.T, frame, window Config) []any {
			ls, err := OpenLive(src, udf, frame, LiveConfig{SegmentFrames: 1200})
			if err != nil {
				t.Fatal(err)
			}
			fol, err := ls.Follow(window, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for range 4 {
				if err := ls.Append(600); err != nil {
					t.Fatal(err)
				}
			}
			if err := ls.Seal(); err != nil {
				t.Fatal(err)
			}
			if len(ls.Deltas()) == 0 || len(fol.Deltas()) == 0 {
				t.Fatal("a follower saw no answer")
			}
			return []any{ls.Deltas(), fol.Deltas(), ls.Stats()}
		},
	}
	for name, run := range paths {
		t.Run(name, func(t *testing.T) {
			zero, full := run(t, frame, window), run(t, spelled(frame), spelled(window))
			if !reflect.DeepEqual(zero, full) {
				t.Fatalf("zero defaults and spelled-out defaults diverge:\n%+v\nvs\n%+v", zero, full)
			}
		})
	}
}
