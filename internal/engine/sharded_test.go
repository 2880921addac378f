package engine

import (
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/core"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func shardedSource(t *testing.T, frames int, seed uint64) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "sharded", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: seed, MeanPopulation: 3, BurstRate: 3,
		DailyCycle: true, DistractorPopulation: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// shardedPlan is testPlan with a sampling floor small enough for
// 2000-frame shards and the given window shape, normalized.
func shardedPlan(k, window, stride int) Plan {
	p := testPlan(k)
	p.Ingest.MinSamples = 300
	p.Window = WindowSpec{Size: window, Stride: stride, SampleFrac: 0.1}
	return p.Normalize()
}

func TestShardedValidation(t *testing.T) {
	src := shardedSource(t, 2000, 1)
	udf := vision.CountUDF{Class: video.ClassCar}
	cases := []struct {
		plan    Plan
		workers int
	}{
		{shardedPlan(5, 0, 0), 0},
		{shardedPlan(0, 0, 0), 2},
		{shardedPlan(5, 0, 0), 400}, // 2000 frames / 400 workers = 5 < 10
		{shardedPlan(5, 0, 30), 1},  // stride without window
	}
	for _, c := range cases {
		_, err := RunSharded(src, udf, c.plan, c.workers)
		if err == nil {
			t.Fatalf("plan %+v with %d workers should be rejected", c.plan, c.workers)
		}
		if !strings.HasPrefix(err.Error(), "everest: ") || strings.Count(err.Error(), "everest:") != 1 {
			t.Fatalf("validation error %q should carry exactly one everest: prefix", err)
		}
	}
	if _, err := RunSharded(nil, udf, shardedPlan(5, 0, 0), 1); err == nil {
		t.Fatal("nil source should be rejected")
	}
	if _, err := RunSharded(src, nil, shardedPlan(5, 0, 0), 1); err == nil {
		t.Fatal("nil UDF should be rejected")
	}
}

func TestShardedFrameQuery(t *testing.T) {
	src := shardedSource(t, 6000, 11)
	udf := vision.CountUDF{Class: video.ClassCar}
	sh, err := RunSharded(src, udf, shardedPlan(10, 0, 0), 3)
	if err != nil {
		t.Fatal(err)
	}
	out := sh.Outcome

	t.Run("MeetsGuarantee", func(t *testing.T) {
		if len(out.IDs) != 10 {
			t.Fatalf("result size %d, want 10", len(out.IDs))
		}
		if out.Confidence < 0.9 {
			t.Fatalf("confidence %v < 0.9", out.Confidence)
		}
		// Every returned score must be the exact oracle score (the
		// certain-result condition survives the merge).
		for i, id := range out.IDs {
			if want := float64(src.TrueCountFast(id)); out.Scores[i] != want {
				t.Fatalf("frame %d score %v, want oracle %v", id, out.Scores[i], want)
			}
		}
		if len(sh.Shards) != 3 {
			t.Fatalf("%d shards, want 3", len(sh.Shards))
		}
		if sh.Shards[0].Lo != 0 || sh.Shards[2].Hi != 6000 {
			t.Fatalf("shard bounds wrong: %+v", sh.Shards)
		}
		if err := sh.Artifact.ValidateFor(src, udf); err != nil {
			t.Fatalf("merged artifact does not bind to the whole video: %v", err)
		}
	})

	// The BSP wall clock with P > 1 workers must be strictly below the
	// summed worker bill (per-phase maxima < sums).
	t.Run("WallClockBelowSerialBill", func(t *testing.T) {
		wall := 0.0
		for _, ph := range []simclock.Phase{
			simclock.PhaseLabelSamples, simclock.PhaseTrainCMDN,
			simclock.PhasePopulateD0, simclock.PhaseDiffDetect,
		} {
			wall += out.Clock.PhaseMS(ph)
		}
		if wall >= sh.WorkerSumMS {
			t.Fatalf("BSP Phase 1 wall %v should be < summed bill %v", wall, sh.WorkerSumMS)
		}
	})
}

func TestShardedDeterministic(t *testing.T) {
	src := shardedSource(t, 6000, 13)
	udf := vision.CountUDF{Class: video.ClassCar}
	// Different Procs split the per-shard CPU budget differently; the
	// answer and every charge must not move.
	run := func(procs int) *Sharded {
		p := shardedPlan(25, 0, 0)
		p.Procs, p.Ingest.Procs = procs, procs
		sh, err := RunSharded(src, udf, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return sh
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(keyOf(a.Outcome), keyOf(b.Outcome)) {
		t.Fatalf("identical sharded runs diverged:\n%+v\nvs\n%+v", keyOf(a.Outcome), keyOf(b.Outcome))
	}
	if a.WorkerSumMS != b.WorkerSumMS || !reflect.DeepEqual(a.Shards, b.Shards) {
		t.Fatal("shard accounting differs across identical runs")
	}

	// With K large enough results are free to come from any shard; all
	// IDs must be global, in range and unique.
	t.Run("GlobalIDsCoverAllShards", func(t *testing.T) {
		seen := make(map[int]bool)
		for _, id := range a.Outcome.IDs {
			if id < 0 || id >= 6000 {
				t.Fatalf("frame ID %d out of range", id)
			}
			if seen[id] {
				t.Fatalf("duplicate frame ID %d", id)
			}
			seen[id] = true
		}
		if a.Outcome.Tuples <= 0 || a.Outcome.Tuples > 6000 {
			t.Fatalf("merged relation size %d", a.Outcome.Tuples)
		}
		if last := a.Artifact.Retained[len(a.Artifact.Retained)-1]; last < 3000 {
			t.Fatalf("merged artifact retains nothing from the second shard (last retained %d)", last)
		}
	})
}

func TestShardedWindowQuery(t *testing.T) {
	src := shardedSource(t, 6000, 37)
	udf := vision.CountUDF{Class: video.ClassCar}
	sh, err := RunSharded(src, udf, shardedPlan(5, 70, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	out := sh.Outcome
	if len(out.IDs) != 5 {
		t.Fatalf("result size %d, want 5", len(out.IDs))
	}
	if out.Confidence < 0.9 {
		t.Fatalf("confidence %v < 0.9", out.Confidence)
	}
	for _, w := range out.IDs {
		if w < 0 || w >= 6000/70 {
			t.Fatalf("window ID %d out of range", w)
		}
	}

	// 6000 frames over 2 workers puts the shard boundary at 3000; windows
	// of 70 frames are not aligned to it, so window 42 ([2940, 3010))
	// aggregates Phase 1 knowledge from both shards. The merged segment
	// structure must cover it like any other window.
	t.Run("StraddlingShardBoundary", func(t *testing.T) {
		if out.Tuples != 6000/70 {
			t.Fatalf("merged relation has %d windows, want %d", out.Tuples, 6000/70)
		}
		rel, err := sh.Artifact.WindowRelation(WindowSpec{Size: 70, Stride: 70}, udf.Quantize(), nil, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rel[42].Dist.Validate(); err != nil {
			t.Fatalf("straddling window 42: %v", err)
		}
	})
}

func TestShardedSlidingWindowUsesUnionBound(t *testing.T) {
	src := shardedSource(t, 6000, 29)
	udf := vision.CountUDF{Class: video.ClassCar}
	sh, err := RunSharded(src, udf, shardedPlan(5, 60, 30), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Outcome.Bound != core.BoundUnion {
		t.Fatalf("overlapping windows must use the union bound, got %s", sh.Outcome.Bound)
	}
	if sh.Outcome.Confidence < 0.9 {
		t.Fatalf("confidence %v < 0.9", sh.Outcome.Confidence)
	}
}

// A shard whose Ingest fails must surface as an error naming the shard.
func TestShardedShardErrorPropagates(t *testing.T) {
	src := shardedSource(t, 2000, 31)
	udf := vision.CountUDF{Class: video.ClassCar}
	p := shardedPlan(2, 0, 0)
	p.Ingest.Proxy.Arch = 99
	_, err := RunSharded(src, udf, p, 2)
	if err == nil {
		t.Fatal("an unknown proxy architecture must fail every shard's ingest")
	}
	if !strings.HasPrefix(err.Error(), "everest: shard 0: ") {
		t.Fatalf("error %q should name the first failing shard", err)
	}
}

type panickyUDF struct{ vision.UDF }

func (panickyUDF) Score(video.Source, []int) []float64 { panic("oracle down") }

// Phase 1 labels through the UDF's plain Score, outside the dispatch
// boundary's recovery: a panic there must come back on the caller's
// goroutine, where it can be recovered, not kill the process from a
// shard goroutine.
func TestShardedIngestPanicReachesCaller(t *testing.T) {
	src := shardedSource(t, 2000, 41)
	defer func() {
		if r := recover(); r != "oracle down" {
			t.Fatalf("recovered %v, want the shard's own panic value", r)
		}
	}()
	_, _ = RunSharded(src, panickyUDF{vision.CountUDF{Class: video.ClassCar}}, shardedPlan(2, 0, 0), 2)
	t.Fatal("a panicking shard returned normally")
}
