package stream

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func feed(t *testing.T, frames int) *video.Synthetic {
	t.Helper()
	s, err := video.NewSynthetic(video.Config{
		Name: "cam", Kind: video.KindTraffic, Class: video.ClassCar,
		Frames: frames, FPS: 30, Seed: 12, MeanPopulation: 3, BurstRate: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testIngest keeps per-segment Phase 1 small enough for unit tests.
func testIngest(seed uint64) phase1.Options {
	return phase1.Options{
		SampleFrac: 0.1,
		MinSamples: 60,
		Proxy:      cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}}, Epochs: 10},
		Cost:       simclock.Default(),
		Seed:       seed,
	}
}

func countUDF() vision.UDF { return vision.CountUDF{Class: video.ClassCar} }

// TestStreamingMatchesBatch: one segment spanning the whole feed,
// delivered in awkward chunks, produces an artifact and simulated
// charges bit-identical to one batch Ingest over the same frames.
func TestStreamingMatchesBatch(t *testing.T) {
	const n = 900
	src := feed(t, n)
	udf := countUDF()

	batchClock := simclock.NewClock()
	prefix, err := video.Prefix(src, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Ingest(prefix, udf, testIngest(5), batchClock)
	if err != nil {
		t.Fatal(err)
	}

	g, err := NewIngestor(src, udf, Config{SegmentFrames: n, Ingest: testIngest(5)})
	if err != nil {
		t.Fatal(err)
	}
	for delivered := 0; delivered < n; {
		chunk := 1 + delivered%13
		if delivered+chunk > n {
			chunk = n - delivered
		}
		if err := g.Append(chunk); err != nil {
			t.Fatal(err)
		}
		delivered += chunk
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, g.Artifact()) {
		t.Fatal("streamed artifact differs from batch ingest")
	}
	if got, wantMS := g.IngestMS(), batchClock.TotalMS(); got != wantMS {
		t.Fatalf("streamed ingest charged %v ms, batch %v ms", got, wantMS)
	}
	st := g.Stats()
	if st.Segments != 1 || st.WastedLabels != 0 || st.EagerLabels == 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

// TestSealedShortSegmentIsPure: sealing mid-segment re-plans for the
// actual length, so the artifact still matches batch ingestion of the
// same span; only extra (wasted eager) label charges are allowed.
func TestSealedShortSegmentIsPure(t *testing.T) {
	const n = 700
	src := feed(t, n)
	udf := countUDF()

	batchClock := simclock.NewClock()
	prefix, err := video.Prefix(src, n)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Ingest(prefix, udf, testIngest(5), batchClock)
	if err != nil {
		t.Fatal(err)
	}

	// Planned span exceeds the feed: the single segment seals short.
	g, err := NewIngestor(src, udf, Config{SegmentFrames: 4 * n, Ingest: testIngest(5)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/100; i++ {
		if err := g.Append(100); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, g.Artifact()) {
		t.Fatal("sealed-short artifact differs from batch ingest")
	}
	if g.IngestMS() < batchClock.TotalMS() {
		t.Fatalf("streamed %v ms below batch %v ms", g.IngestMS(), batchClock.TotalMS())
	}
}

// TestWarmRefreshCheaperThanFull: on a stationary feed, warm-started
// (RefreshAuto with the drift fallback off) segments charge less simulated training time than RefreshFull at the
// same boundaries, and the counters record the modes.
func TestWarmRefreshCheaperThanFull(t *testing.T) {
	const n, seg = 1800, 600
	run := func(mode RefreshMode) (*Ingestor, error) {
		src := feed(t, n)
		cfg := Config{SegmentFrames: seg, Refresh: mode, DriftNLL: math.Inf(1), Ingest: testIngest(5)}
		g, err := NewIngestor(src, countUDF(), cfg)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n/seg; i++ {
			if err := g.Append(seg); err != nil {
				return nil, err
			}
		}
		return g, g.Seal()
	}

	full, err := run(RefreshFull)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := run(RefreshAuto)
	if err != nil {
		t.Fatal(err)
	}
	fs, ws := full.Stats(), warm.Stats()
	if fs.FullTrains != 3 || fs.WarmRefreshes != 0 {
		t.Fatalf("full-mode stats %+v", fs)
	}
	if ws.FullTrains != 1 || ws.WarmRefreshes != 2 {
		t.Fatalf("warm-mode stats %+v", ws)
	}
	if warm.IngestMS() >= full.IngestMS() {
		t.Fatalf("warm ingest %v ms not below full %v ms", warm.IngestMS(), full.IngestMS())
	}
	// The artifacts agree on structure (same plans, same labels); only
	// the proxies — and hence the mixtures — differ.
	if warm.Artifact().TotalFrames != full.Artifact().TotalFrames ||
		!reflect.DeepEqual(warm.Artifact().Exact, full.Artifact().Exact) {
		t.Fatal("warm and full streams disagree on labelled frames")
	}
}

// TestDriftFallback: a negative tolerance rejects every warm start; the
// fallbacks are counted and the stream degrades to full trains.
func TestDriftFallback(t *testing.T) {
	const n, seg = 1200, 600
	src := feed(t, n)
	cfg := Config{SegmentFrames: seg, Refresh: RefreshAuto, DriftNLL: -1, Ingest: testIngest(5)}
	g, err := NewIngestor(src, countUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/seg; i++ {
		if err := g.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.FullTrains != 2 || st.WarmRefreshes != 0 || st.DriftFallbacks != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestReservoirBounded: the calibration reservoir never exceeds its cap
// regardless of how many segments close — the O(chunk) live-memory
// claim for the model-refresh state.
func TestReservoirBounded(t *testing.T) {
	const n, seg = 2400, 600
	src := feed(t, n)
	cfg := Config{SegmentFrames: seg, DriftNLL: math.Inf(1), ReservoirCap: 50, Ingest: testIngest(5)}
	g, err := NewIngestor(src, countUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/seg; i++ {
		if err := g.Append(seg); err != nil {
			t.Fatal(err)
		}
		if len(g.reservoir) > 50 {
			t.Fatalf("reservoir grew to %d (cap 50)", len(g.reservoir))
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	if g.resSeen <= 50 {
		t.Fatalf("reservoir saw only %d samples", g.resSeen)
	}
}

// TestFollowerDeltas: a follower sees a first all-entered delta, its
// converged answer matches a direct engine run over the final artifact,
// and a staleness bound forces early closes.
func TestFollowerDeltas(t *testing.T) {
	const n, seg = 1200, 600
	src := feed(t, n)
	udf := countUDF()
	cfg := Config{SegmentFrames: seg, Refresh: RefreshFull, Ingest: testIngest(5)}
	g, err := NewIngestor(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	plan := engine.Plan{K: 3, Threshold: 0.9, Seed: 5, Cost: simclock.Default()}
	var seen []Delta
	f, err := g.Follow(FollowConfig{Plan: plan, OnDelta: func(d Delta) { seen = append(seen, d) }})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/seg; i++ {
		if err := g.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}

	if len(seen) == 0 || len(seen) != len(f.Deltas()) {
		t.Fatalf("callback saw %d deltas, accumulator %d", len(seen), len(f.Deltas()))
	}
	first := seen[0]
	if len(first.Change.Entered) != 3 || len(first.Change.Left) != 0 {
		t.Fatalf("first delta %+v is not an all-entered answer", first.Change)
	}
	for i, d := range seen {
		if d.Seq != i {
			t.Fatalf("delta %d has Seq %d", i, d.Seq)
		}
	}

	// The converged answer equals a fresh engine run over the final
	// artifact (label caching never changes results).
	prefix, err := video.Prefix(src, n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := engine.NewPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Execute(p, engine.Binding{Src: prefix, UDF: udf, Artifact: g.Artifact()})
	if err != nil {
		t.Fatal(err)
	}
	got := f.Answer()
	if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Fatalf("converged answer %v/%v, want %v/%v", got.IDs, got.Scores, want.IDs, want.Scores)
	}
}

// TestFollowerStalenessBound: with MaxLagChunks set, footage arriving
// without a segment close forces early closes so the follower stays
// within its bound.
func TestFollowerStalenessBound(t *testing.T) {
	const n = 1200
	src := feed(t, n)
	cfg := Config{SegmentFrames: n, Refresh: RefreshFull, Ingest: testIngest(5)}
	g, err := NewIngestor(src, countUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{K: 3, Threshold: 0.9, Seed: 5, Cost: simclock.Default()}
	f, err := g.Follow(FollowConfig{Plan: plan, MaxLagChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := g.Append(300); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.ForcedCloses == 0 {
		t.Fatalf("no forced closes despite lag bound (stats %+v)", st)
	}
	if len(f.Deltas()) < 2 {
		t.Fatalf("follower saw only %d deltas", len(f.Deltas()))
	}
	last := f.Deltas()[len(f.Deltas())-1]
	if last.Frontier != n {
		t.Fatalf("final delta frontier %d, want %d", last.Frontier, n)
	}
}

// TestFollowerWaitsForRetainedFrames: a frame follower whose K exceeds
// the frames the artifact has retained waits for footage instead of
// failing the Append that closes the segment, answers once enough
// frames are retained, and at Seal reports the shortfall as an error.
func TestFollowerWaitsForRetainedFrames(t *testing.T) {
	const n, seg, chunk = 1200, 600, 300
	src := feed(t, n)
	cfg := Config{SegmentFrames: seg, Refresh: RefreshFull, Ingest: testIngest(5)}
	// The retained counts after each close, from a follower-free run.
	var retained []int
	probe, err := NewIngestor(src, countUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/seg; i++ {
		if err := probe.Append(seg); err != nil {
			t.Fatal(err)
		}
		retained = append(retained, len(probe.Artifact().Retained))
	}
	if retained[0] >= retained[1] {
		t.Fatalf("retained counts %v do not grow", retained)
	}

	follow := func(k int) (*Ingestor, *Follower) {
		g, err := NewIngestor(src, countUDF(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := engine.Plan{K: k, Threshold: 0.9, Seed: 5, Cost: simclock.Default()}
		f, err := g.Follow(FollowConfig{Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		return g, f
	}

	t.Run("answers_once_retained", func(t *testing.T) {
		g, f := follow(retained[0] + 1)
		for frontier := chunk; frontier <= n; frontier += chunk {
			if err := g.Append(chunk); err != nil {
				t.Fatalf("Append to frame %d: %v", frontier, err)
			}
			if frontier < n && len(f.Deltas()) != 0 {
				t.Fatalf("frame %d: a delta before K=%d frames were retained", frontier, retained[0]+1)
			}
		}
		if d := f.Deltas(); len(d) != 1 || d[0].Frontier != n || len(d[0].IDs) != retained[0]+1 {
			t.Fatalf("deltas %+v, want one answer of %d frames at frontier %d", d, retained[0]+1, n)
		}
		if err := g.Seal(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("seal_errors_above_retained", func(t *testing.T) {
		g, f := follow(retained[1] + 1)
		for frontier := chunk; frontier <= n; frontier += chunk {
			if err := g.Append(chunk); err != nil {
				t.Fatalf("Append to frame %d: %v", frontier, err)
			}
		}
		if err := g.Seal(); err == nil {
			t.Fatalf("Seal with K=%d above the %d retained frames succeeded", retained[1]+1, retained[1])
		}
		if len(f.Deltas()) != 0 {
			t.Fatalf("a follower with K above the retained frames answered: %+v", f.Deltas())
		}
	})
}

// TestSharedConfirmations: two identical followers due at one close run
// as one scheduler group — the second rides the first's confirmations
// and is charged less.
func TestSharedConfirmations(t *testing.T) {
	const n = 900
	src := feed(t, n)
	cfg := Config{SegmentFrames: n, Refresh: RefreshFull, Ingest: testIngest(5)}
	g, err := NewIngestor(src, countUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{K: 3, Threshold: 0.9, Seed: 5, Cost: simclock.Default()}
	f1, err := g.Follow(FollowConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := g.Follow(FollowConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append(n); err != nil {
		t.Fatal(err)
	}
	if err := g.Seal(); err != nil {
		t.Fatal(err)
	}
	d1, d2 := f1.Deltas(), f2.Deltas()
	if len(d1) != 1 || len(d2) != 1 {
		t.Fatalf("delta counts %d/%d", len(d1), len(d2))
	}
	if !reflect.DeepEqual(d1[0].IDs, d2[0].IDs) {
		t.Fatal("identical followers disagree")
	}
	if d2[0].QueryMS >= d1[0].QueryMS {
		t.Fatalf("second follower charged %v ms, first %v ms — confirmations not shared",
			d2[0].QueryMS, d1[0].QueryMS)
	}
	if g.Stats().Evaluations != 1 {
		t.Fatalf("evaluations %d, want 1", g.Stats().Evaluations)
	}
}

// countedSource counts Render calls from behind the video.Source
// interface, as opaque to the ingestor as a tracing wrapper.
type countedSource struct {
	video.Source
	renders atomic.Int64
}

func (s *countedSource) Render(i int) video.Frame {
	s.renders.Add(1)
	return s.Source.Render(i)
}

// TestSegmentCloseRenderBudget: every segment close decodes its span
// once (the difference detector's pass, which proxy inference rides)
// plus one decode per labelled sample for its features — on full-train
// and warm closes alike. A drift fallback featurizes the holdout set
// for the drift check and again inside the full train, and adds exactly
// that.
func TestSegmentCloseRenderBudget(t *testing.T) {
	const n, seg = 1800, 600
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"full", Config{Refresh: RefreshFull}},
		{"warm", Config{Refresh: RefreshAuto, DriftNLL: math.Inf(1)}},
		{"drift-fallback", Config{Refresh: RefreshAuto, DriftNLL: -1}},
	} {
		src := &countedSource{Source: feed(t, n)}
		tc.cfg.SegmentFrames = seg
		tc.cfg.Ingest = testIngest(5)
		g, err := NewIngestor(src, countUDF(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var renders, train, hold, fallbacks int
		for i := 0; i < n/seg; i++ {
			if err := g.Append(seg); err != nil {
				t.Fatal(err)
			}
			info, st := g.Artifact().Info, g.Stats()
			dTrain, dHold := info.TrainSamples-train, info.HoldoutSamples-hold
			want := seg + dTrain + dHold + (st.DriftFallbacks-fallbacks)*dHold
			got := int(src.renders.Load()) - renders
			if got != want {
				t.Errorf("%s close %d: %d renders, want %d (%d frames, %d+%d labelled samples, %d drift fallbacks)",
					tc.name, i, got, want, seg, dTrain, dHold, st.DriftFallbacks-fallbacks)
			}
			renders, train, hold, fallbacks = renders+got, info.TrainSamples, info.HoldoutSamples, st.DriftFallbacks
		}
		if st := g.Stats(); tc.name == "warm" && st.WarmRefreshes != 2 || tc.name == "drift-fallback" && st.DriftFallbacks != 2 {
			t.Errorf("%s: closes did not take the path under test: %+v", tc.name, st)
		}
	}
}
