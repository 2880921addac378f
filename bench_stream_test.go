package everest_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/stream"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// streamBenchFeed builds the live-camera fixture the streaming
// benchmarks replay.
func streamBenchFeed(b testing.TB, frames int) *video.Synthetic {
	b.Helper()
	src, err := video.NewSynthetic(video.Config{
		Name: "livecam", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 33, MeanPopulation: 3, BurstRate: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

func streamBenchOptions() phase1.Options {
	return phase1.Options{
		SampleFrac: 0.1,
		MinSamples: 60,
		Proxy:      cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}}, Epochs: 20},
		Cost:       simclock.Default(),
		Seed:       9,
	}
}

// runStream ingests the whole feed in fixed chunks and returns the
// sealed ingestor.
func runStream(b *testing.B, src video.Source, warm bool, seg, chunk int) *stream.Ingestor {
	b.Helper()
	g, err := stream.NewIngestor(src, vision.CountUDF{Class: video.ClassCar}, stream.Config{
		SegmentFrames: seg,
		Warm:          warm,
		DriftNLL:      math.Inf(1), // "warm" never falls back to a full train
		Ingest:        streamBenchOptions(),
	})
	if err != nil {
		b.Fatal(err)
	}
	n := src.NumFrames()
	for sent := 0; sent < n; sent += chunk {
		c := chunk
		if sent+c > n {
			c = n - sent
		}
		if err := g.Append(c); err != nil {
			b.Fatal(err)
		}
	}
	if err := g.Seal(); err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkStreamingIngest measures per-frame simulated ingest cost of
// a chunked live stream. The "full" variant retrains the CMDN grid at
// every segment close — bit-identical to repeated batch Index.Extend
// calls at the same boundaries (locked by the golden suite), so it IS
// the repeated-batch-Extend baseline; "warm" fine-tunes the previous
// segment's model instead. The sim-ms/frame gap is the incremental
// refresh win.
func BenchmarkStreamingIngest(b *testing.B) {
	const frames, seg, chunk = 2400, 600, 100
	for _, mode := range []struct {
		name string
		warm bool
	}{{"full", false}, {"warm", true}} {
		b.Run(mode.name, func(b *testing.B) {
			src := streamBenchFeed(b, frames)
			b.ReportAllocs()
			var simPerFrame, trainPerFrame float64
			for i := 0; i < b.N; i++ {
				g := runStream(b, src, mode.warm, seg, chunk)
				simPerFrame = g.IngestMS() / float64(frames)
				trainPerFrame = g.PhaseMS(simclock.PhaseTrainCMDN) / float64(frames)
			}
			b.ReportMetric(simPerFrame, "sim-ms/frame")
			b.ReportMetric(trainPerFrame, "sim-train-ms/frame")
		})
	}
}

// BenchmarkFollowDeltas measures the continuous top-K path: a follower
// re-evaluated at every segment close over the ingestor's private label
// cache, reporting simulated Phase 2 cost per delta.
func BenchmarkFollowDeltas(b *testing.B) {
	const frames, seg, chunk = 2400, 600, 100
	src := streamBenchFeed(b, frames)
	b.ReportAllocs()
	var simPerDelta float64
	var deltas int
	for i := 0; i < b.N; i++ {
		g, err := stream.NewIngestor(src, vision.CountUDF{Class: video.ClassCar}, stream.Config{
			SegmentFrames: seg,
			Warm:          true,
			DriftNLL:      math.Inf(1), // always warm-start
			Ingest:        streamBenchOptions(),
		})
		if err != nil {
			b.Fatal(err)
		}
		f, err := g.Follow(stream.FollowConfig{
			Plan: engine.Plan{K: 3, Threshold: 0.9, Seed: 9, Cost: simclock.Default()},
		})
		if err != nil {
			b.Fatal(err)
		}
		for sent := 0; sent < frames; sent += chunk {
			if err := g.Append(chunk); err != nil {
				b.Fatal(err)
			}
		}
		if err := g.Seal(); err != nil {
			b.Fatal(err)
		}
		var totalMS float64
		for _, d := range f.Deltas() {
			totalMS += d.QueryMS
		}
		deltas = len(f.Deltas())
		simPerDelta = totalMS / float64(deltas)
	}
	b.ReportMetric(simPerDelta, "sim-ms/delta")
	b.ReportMetric(float64(deltas), "deltas")
}

// closeSegmentFrames is the segment length of closeStream.
const closeSegmentFrames = 600

// closeStream is a live stream with room for the given number of
// 600-frame segments, followed by a frame query and a 30-frame window
// query: every Append of closeSegmentFrames closes one segment — a warm
// CMDN refresh, the artifact's Append, and both followers answered over
// the extended D0 memo.
func closeStream(tb testing.TB, segments int) *stream.Ingestor {
	tb.Helper()
	g, err := stream.NewIngestor(streamBenchFeed(tb, segments*closeSegmentFrames), vision.CountUDF{Class: video.ClassCar}, stream.Config{
		SegmentFrames: closeSegmentFrames,
		Warm:          true,
		DriftNLL:      math.Inf(1), // always warm-start
		Ingest:        streamBenchOptions(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	for _, w := range []engine.WindowSpec{{}, {Size: 30}} {
		if _, err := g.Follow(stream.FollowConfig{
			Plan: engine.Plan{K: 3, Threshold: 0.9, Seed: 9, Cost: simclock.Default(), Window: w},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}

// BenchmarkSegmentClose measures segment closes (closeStream) at two
// stream ages. An op takes a stream from age segments to 2·age: one
// period of the doubling by which the memo's tables grow, so the one
// close of the period at which their capacity doubles is amortized over
// the period, as the design amortizes it. B/close and ns/close are the
// per-close means; a close that copied the stream's D0 would show them
// growing with the age. Each op builds its own stream to the age with
// the timer stopped.
func BenchmarkSegmentClose(b *testing.B) {
	for _, age := range []int{8, 64} {
		b.Run(fmt.Sprintf("age=%d", age), func(b *testing.B) {
			b.ReportAllocs()
			var ms runtime.MemStats
			var bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := closeStream(b, 2*age)
				for s := 0; s < age; s++ {
					if err := g.Append(closeSegmentFrames); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&ms)
				bytes -= ms.TotalAlloc
				b.StartTimer()
				for s := 0; s < age; s++ {
					if err := g.Append(closeSegmentFrames); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				bytes += ms.TotalAlloc
			}
			closes := float64(b.N * age)
			b.ReportMetric(float64(bytes)/closes, "B/close")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/closes, "ns/close")
		})
	}
}
