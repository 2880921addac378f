package everest

import (
	"reflect"
	"testing"

	"github.com/everest-project/everest/internal/stream"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// streamTail replays the feed's tail through an ingestor in fixed-size
// chunks (chunk <= 0 delivers everything at once) and seals it.
func streamTail(t *testing.T, g *stream.Ingestor, tail, chunk int) {
	t.Helper()
	if chunk <= 0 {
		chunk = tail
	}
	for sent := 0; sent < tail; {
		c := chunk
		if sent+c > tail {
			c = tail - sent
		}
		if err := g.Append(c); err != nil {
			t.Fatal(err)
		}
		sent += c
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenStreamingMatchesBatch is the streaming determinism lock:
// ingesting a feed's tail chunk by chunk — chunk sizes 1, 7 and
// everything at once — produces an artifact, simulated ingest charges,
// and query answers bit-identical to one batch Index.Extend, at every
// golden worker count. The artifact is a pure function of the
// segment-boundary sequence; chunking must be invisible.
func TestGoldenStreamingMatchesBatch(t *testing.T) {
	const short, long = 3000, 6000
	udf := vision.CountUDF{Class: video.ClassCar}

	for _, procs := range goldenProcs {
		cfg := smallCfg(5)
		cfg.Procs = procs
		day1, full := growableSources(t, short, long, 107)

		base, err := BuildIndex(day1, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batchIx := &Index{art: base.art.Clone()}
		batchIx.info = phase1InfoOf(batchIx.art.Info)
		tailMS, err := batchIx.Extend(full, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batchRes, err := batchIx.Query(full, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batchGold := goldenOf(batchRes)

		for _, chunk := range []int{1, 7, 0} {
			art := base.art.Clone()
			scfg := stream.Config{
				SegmentFrames: long - short,
				Ingest:        cfg.Plan().Ingest,
			}
			g, err := stream.NewIngestorFrom(art, full, udf, scfg)
			if err != nil {
				t.Fatal(err)
			}
			streamTail(t, g, long-short, chunk)

			if !reflect.DeepEqual(batchIx.art.Clone(), art.Clone()) {
				t.Fatalf("procs=%d chunk=%d: streamed artifact differs from batch Extend", procs, chunk)
			}
			if g.IngestMS() != tailMS {
				t.Fatalf("procs=%d chunk=%d: streamed ingest %v ms, batch tail %v ms",
					procs, chunk, g.IngestMS(), tailMS)
			}
			streamIx := &Index{art: art, info: phase1InfoOf(art.Info)}
			res, err := streamIx.Query(full, udf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(goldenOf(res), batchGold) {
				t.Fatalf("procs=%d chunk=%d: query over streamed index diverged from batch", procs, chunk)
			}
		}
	}
}

// TestGoldenStreamingMultiSegment: a stream without Warm closing several
// segments is bit-identical — artifact and charges — to repeated batch
// Extends at the same boundaries.
func TestGoldenStreamingMultiSegment(t *testing.T) {
	const short, long, seg = 3000, 6000, 1500
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	day1, full := growableSources(t, short, long, 107)

	base, err := BuildIndex(day1, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	batchIx := &Index{art: base.art.Clone()}
	batchIx.info = phase1InfoOf(batchIx.art.Info)
	var batchMS float64
	for hi := short + seg; hi <= long; hi += seg {
		view, err := video.Prefix(full, hi)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := batchIx.Extend(view, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batchMS += ms
	}

	art := base.art.Clone()
	g, err := stream.NewIngestorFrom(art, full, udf, stream.Config{
		SegmentFrames: seg,
		Ingest:        cfg.Plan().Ingest,
	})
	if err != nil {
		t.Fatal(err)
	}
	streamTail(t, g, long-short, 700)

	if !reflect.DeepEqual(batchIx.art.Clone(), art.Clone()) {
		t.Fatal("multi-segment stream differs from repeated batch Extends")
	}
	if g.IngestMS() != batchMS {
		t.Fatalf("streamed ingest %v ms, repeated Extends %v ms", g.IngestMS(), batchMS)
	}
	if g.Stats().Segments != 2 {
		t.Fatalf("segments %d, want 2", g.Stats().Segments)
	}
}

// TestGoldenFollowerConvergesToBatch: a follower's converged answer
// equals the batch index query, at every golden worker count.
func TestGoldenFollowerConvergesToBatch(t *testing.T) {
	const short, long = 3000, 6000
	udf := vision.CountUDF{Class: video.ClassCar}

	for _, procs := range goldenProcs {
		cfg := smallCfg(5)
		cfg.Procs = procs
		day1, full := growableSources(t, short, long, 107)

		base, err := BuildIndex(day1, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		batchIx := &Index{art: base.art.Clone()}
		batchIx.info = phase1InfoOf(batchIx.art.Info)
		if _, err := batchIx.Extend(full, udf, cfg); err != nil {
			t.Fatal(err)
		}
		want, err := batchIx.Query(full, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}

		art := base.art.Clone()
		g, err := stream.NewIngestorFrom(art, full, udf, stream.Config{
			SegmentFrames: long - short,
			Ingest:        cfg.Plan().Ingest,
		})
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := batchIx.planFor(full, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := g.Follow(stream.FollowConfig{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		streamTail(t, g, long-short, 997)

		got := f.Answer()
		if got == nil {
			t.Fatal("follower never evaluated")
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Fatalf("procs=%d: converged follower answer %v/%v, batch %v/%v",
				procs, got.IDs, got.Scores, want.IDs, want.Scores)
		}
	}
}
