package stream

import (
	"errors"
	"math"
	"reflect"
	"strings"
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
// (Warm with the drift fallback off) segments charge less simulated training time than full trains at the
// same boundaries, and the counters record the modes.
func TestWarmRefreshCheaperThanFull(t *testing.T) {
	const n, seg = 1800, 600
	run := func(warm bool) (*Ingestor, error) {
		src := feed(t, n)
		cfg := Config{SegmentFrames: seg, Warm: warm, DriftNLL: math.Inf(1), Ingest: testIngest(5)}
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

	full, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := run(true)
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
	cfg := Config{SegmentFrames: seg, Warm: true, DriftNLL: -1, Ingest: testIngest(5)}
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
	cfg := Config{SegmentFrames: seg, Warm: true, DriftNLL: math.Inf(1), ReservoirCap: 50, Ingest: testIngest(5)}
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

// TestReservoirOwnsFeatures: a reservoir sample keeps its own copy of
// its features. The closes' samples are views of the ingestor's feature
// block, which every close overwrites; after enough closes to fill and
// churn the reservoir, every sample's features must still be those of
// its frame, decoded afresh.
func TestReservoirOwnsFeatures(t *testing.T) {
	const n, seg, capacity = 3000, 600, 50
	src := feed(t, n)
	cfg := Config{SegmentFrames: seg, Warm: true, DriftNLL: math.Inf(1), ReservoirCap: capacity, Ingest: testIngest(5)}
	g, err := NewIngestor(src, countUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n/seg; i++ {
		if err := g.Append(seg); err != nil {
			t.Fatal(err)
		}
	}
	if len(g.reservoir) != capacity || g.resSeen < 3*capacity {
		t.Fatalf("reservoir holds %d of %d seen: not filled and churned", len(g.reservoir), g.resSeen)
	}
	segs := map[int]bool{}
	for k, s := range g.reservoir {
		segs[s.Frame/seg] = true
		f := src.Render(s.Frame)
		want := cmdn.ExtractFeatures(f)
		f.Release()
		if !reflect.DeepEqual(s.X, want) {
			t.Fatalf("reservoir sample %d (frame %d) holds features other than its frame's", k, s.Frame)
		}
	}
	if len(segs) < 2 {
		t.Fatalf("reservoir spans %d segment(s), want several", len(segs))
	}
}

// TestSealShortTail: a tail past the last segment boundary too short for
// Phase 1's sampling plan does not wedge the stream. Seal seals at the
// last closed segment, the follower holds its answer over the ingested
// frames, the error names the tail that was dropped, and a second Seal
// reports the stream sealed.
func TestSealShortTail(t *testing.T) {
	const n, seg = 1205, 600
	src := feed(t, n)
	udf := countUDF()
	g, err := NewIngestor(src, udf, Config{SegmentFrames: seg, Ingest: testIngest(5)})
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{K: 3, Threshold: 0.9, Seed: 5, Cost: simclock.Default()}
	f, err := g.Follow(FollowConfig{Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Append(n); err != nil {
		t.Fatal(err)
	}
	err = g.Seal()
	if !errors.Is(err, ErrTailNotIngested) {
		t.Fatalf("Seal error %v, want ErrTailNotIngested", err)
	}
	if !strings.Contains(err.Error(), "[1200, 1205)") {
		t.Fatalf("Seal error %q does not name the tail frames [1200, 1205)", err)
	}
	if got := g.Artifact().TotalFrames; got != 2*seg {
		t.Fatalf("artifact covers %d frames, want %d", got, 2*seg)
	}
	d := f.Deltas()
	if len(d) == 0 || d[len(d)-1].Frontier != 2*seg {
		t.Fatalf("follower deltas %+v do not end at frontier %d", d, 2*seg)
	}
	prefix, err := video.Prefix(src, 2*seg)
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
	if got := f.Answer(); !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Fatalf("answer %v/%v, want %v/%v", got.IDs, got.Scores, want.IDs, want.Scores)
	}
	if err := g.Seal(); err == nil || errors.Is(err, ErrTailNotIngested) || !strings.Contains(err.Error(), "already sealed") {
		t.Fatalf("second Seal: %v, want the already-sealed error", err)
	}
	if err := g.Append(1); err == nil {
		t.Fatal("Append after Seal succeeded")
	}
}

// TestFollowerDeltas: a follower sees a first all-entered delta, its
// converged answer matches a direct engine run over the final artifact,
// and a staleness bound forces early closes.
func TestFollowerDeltas(t *testing.T) {
	const n, seg = 1200, 600
	src := feed(t, n)
	udf := countUDF()
	cfg := Config{SegmentFrames: seg, Ingest: testIngest(5)}
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
	if len(first.Entered) != 3 || len(first.Left) != 0 || len(first.Reordered) != 0 {
		t.Fatalf("first delta %+v is not an all-entered answer", first)
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
	cfg := Config{SegmentFrames: n, Ingest: testIngest(5)}
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

// TestForcedCloseWaitsForPhase1Minimum: a follower's staleness bound
// forces a close only once the open segment holds phase1's minimum
// (minForcedSegment frames, pinned here against phase1.SampleCounts):
// the short chunks that arrive before that are valid Appends, and
// ForcedCloses counts the closes that happened — at 600, 610 and 715
// frames for chunks of 600, 5, 5, 5 and 100.
func TestForcedCloseWaitsForPhase1Minimum(t *testing.T) {
	if _, _, err := phase1.SampleCounts(minForcedSegment-1, testIngest(5)); err == nil {
		t.Fatalf("phase1 plans a segment of %d frames: the forced-close floor is above its minimum", minForcedSegment-1)
	}
	if _, _, err := phase1.SampleCounts(minForcedSegment, testIngest(5)); err != nil {
		t.Fatalf("the forced-close floor is below phase1's minimum: %v", err)
	}
	g, err := NewIngestor(feed(t, 1200), countUDF(), Config{SegmentFrames: 1200, Warm: true, Ingest: testIngest(5)})
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{K: 3, Threshold: 0.9, Seed: 5, Cost: simclock.Default()}
	f, err := g.Follow(FollowConfig{Plan: plan, MaxLagChunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var closedAt []int
	for _, chunk := range []int{600, 5, 5, 5, 100} {
		if err := g.Append(chunk); err != nil {
			t.Fatalf("Append(%d) at frontier %d: %v", chunk, g.Frontier()-chunk, err)
		}
		if st := g.Stats(); st.ForcedCloses != st.Segments {
			t.Fatalf("after Append(%d): %d forced closes, %d segments", chunk, st.ForcedCloses, st.Segments)
		} else if st.Segments > len(closedAt) {
			closedAt = append(closedAt, g.Artifact().TotalFrames)
		}
	}
	if want := []int{600, 610, 715}; !reflect.DeepEqual(closedAt, want) {
		t.Fatalf("segments closed at %v, want %v", closedAt, want)
	}
	if d := f.Deltas(); len(d) == 0 || d[len(d)-1].Frontier != 715 {
		t.Fatalf("follower deltas %+v do not end at frontier 715", d)
	}
}

// TestFollowerWaitsForRetainedFrames: a frame follower whose K exceeds
// the frames the artifact has retained waits for footage instead of
// failing the Append that closes the segment, answers once enough
// frames are retained, and at Seal reports the shortfall as an error.
func TestFollowerWaitsForRetainedFrames(t *testing.T) {
	const n, seg, chunk = 1200, 600, 300
	src := feed(t, n)
	cfg := Config{SegmentFrames: seg, Ingest: testIngest(5)}
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
	cfg := Config{SegmentFrames: n, Ingest: testIngest(5)}
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

// TestSegmentCloseRenderBudget: every segment close decodes each frame
// of its span exactly once — the pass that runs the difference detector,
// featurizes the labelled samples and the retained frames, and that the
// drift check, the training and the proxy inference all read from — on
// full-train, warm, drift-fallback and DisableDiff closes alike, and
// with the pass's rows written from four workers at once.
func TestSegmentCloseRenderBudget(t *testing.T) {
	const n, seg = 1800, 600
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"full", Config{}},
		{"warm", Config{Warm: true, DriftNLL: math.Inf(1)}},
		{"drift-fallback", Config{Warm: true, DriftNLL: -1}},
		{"disable-diff", Config{Warm: true, DriftNLL: math.Inf(1), Ingest: phase1.Options{DisableDiff: true}}},
		{"procs-4", Config{Warm: true, DriftNLL: math.Inf(1), Ingest: phase1.Options{Procs: 4}}},
	} {
		src := &countedSource{Source: feed(t, n)}
		ingest := testIngest(5)
		ingest.DisableDiff, ingest.Procs = tc.cfg.Ingest.DisableDiff, tc.cfg.Ingest.Procs
		tc.cfg.SegmentFrames = seg
		tc.cfg.Ingest = ingest
		g, err := NewIngestor(src, countUDF(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		renders := 0
		for i := 0; i < n/seg; i++ {
			if err := g.Append(seg); err != nil {
				t.Fatal(err)
			}
			if got := int(src.renders.Load()) - renders; got != seg {
				t.Errorf("%s close %d: %d renders, want %d (one per frame)", tc.name, i, got, seg)
			}
			renders = int(src.renders.Load())
		}
		st := g.Stats()
		if tc.name == "full" && st.FullTrains != 3 || tc.name == "drift-fallback" && st.DriftFallbacks != 2 ||
			tc.name != "full" && tc.name != "drift-fallback" && st.WarmRefreshes != 2 {
			t.Errorf("%s: closes did not take the path under test: %+v", tc.name, st)
		}
		if tc.name == "disable-diff" && len(g.Artifact().Retained) != n {
			t.Errorf("disable-diff: %d of %d frames retained", len(g.Artifact().Retained), n)
		}
	}
}

// TestDriftNaNRejected: a NaN drift tolerance would fail every
// comparison and so never fall back; NewIngestor rejects it, while +Inf
// (never fall back) and a negative tolerance (always fall back) stand.
func TestDriftNaNRejected(t *testing.T) {
	src := feed(t, 600)
	if _, err := NewIngestor(src, countUDF(), Config{Warm: true, DriftNLL: math.NaN(), Ingest: testIngest(5)}); err == nil {
		t.Fatal("NewIngestor accepted a NaN drift tolerance")
	}
	for _, drift := range []float64{math.Inf(1), -1} {
		if _, err := NewIngestor(src, countUDF(), Config{Warm: true, DriftNLL: drift, Ingest: testIngest(5)}); err != nil {
			t.Fatalf("drift tolerance %v: %v", drift, err)
		}
	}
}

// TestDriftDefaultResolvedOnce: withDefaults resolves a zero drift
// tolerance to 0.5 beside the other defaults, and leaves a negative
// tolerance, +Inf and NaN (which NewIngestor rejects) as given.
func TestDriftDefaultResolvedOnce(t *testing.T) {
	for _, c := range []struct{ in, want float64 }{{0, 0.5}, {-1, -1}, {0.25, 0.25}, {math.Inf(1), math.Inf(1)}} {
		if got := (Config{DriftNLL: c.in}).withDefaults().DriftNLL; got != c.want {
			t.Fatalf("DriftNLL %v resolves to %v, want %v", c.in, got, c.want)
		}
	}
	if got := (Config{DriftNLL: math.NaN()}).withDefaults().DriftNLL; !math.IsNaN(got) {
		t.Fatalf("NaN DriftNLL resolves to %v", got)
	}
}
