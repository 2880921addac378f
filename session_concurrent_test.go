package everest

import (
	"slices"
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// assertSameResult fails unless two results are bit-identical in every
// field a query answer exposes.
func assertSameResult(t *testing.T, name string, got, want *Result) {
	t.Helper()
	if got.Confidence != want.Confidence {
		t.Fatalf("%s: confidence %v != %v", name, got.Confidence, want.Confidence)
	}
	if got.EngineStats != want.EngineStats {
		t.Fatalf("%s: stats %+v != %+v", name, got.EngineStats, want.EngineStats)
	}
	if got.Clock.TotalMS() != want.Clock.TotalMS() {
		t.Fatalf("%s: simulated cost %v != %v", name, got.Clock.TotalMS(), want.Clock.TotalMS())
	}
	if len(got.IDs) != len(want.IDs) {
		t.Fatalf("%s: result size %d != %d", name, len(got.IDs), len(want.IDs))
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] || got.Scores[i] != want.Scores[i] {
			t.Fatalf("%s: result %d (%d, %v) != (%d, %v)",
				name, i, got.IDs[i], got.Scores[i], want.IDs[i], want.Scores[i])
		}
	}
}

// TestQueryBatchBitIdentical is the concurrent-serving determinism
// contract: a batch of queries launched together over one cache snapshot
// must return, for each member, exactly what a lone query from the same
// cache state returns — regardless of goroutine interleaving.
func TestQueryBatchBitIdentical(t *testing.T) {
	src := testSource(t, 9000, 91)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	wcfg := smallCfg(3)
	wcfg.Window = 30
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// References: independent empty-cache queries (Index.Query shares the
	// same Phase 2 path with a nil cache).
	refFrame, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refWindow, err := ix.Query(src, udf, wcfg)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	results, err := sess.QueryBatch([]Config{cfg, wcfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "batch[0] (frame)", results[0], refFrame)
	assertSameResult(t, "batch[1] (window)", results[1], refWindow)
	assertSameResult(t, "batch[2] (frame, same cfg)", results[2], refFrame)
	if sess.Queries() != 3 {
		t.Fatalf("Queries() = %d, want 3", sess.Queries())
	}

	// From the merged post-batch state, N concurrent copies of one query
	// must be identical to each other and to a lone Query from that state.
	clone, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clone.QueryBatch([]Config{cfg, wcfg, cfg}); err != nil {
		t.Fatal(err)
	}
	lone, err := clone.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := sess.QueryBatch(slices.Repeat([]Config{cfg}, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range conc {
		assertSameResult(t, "concurrent caller", r, conc[0])
		if i == 0 {
			assertSameResult(t, "concurrent vs lone", r, lone)
		}
	}
}

// TestSessionConcurrentQueryStress hammers one session with free-running
// concurrent Query calls (frame and window mixed). Under -race this
// proves the shared label cache is data-race free; the assertions check
// that every answer keeps the engine's guarantees — confirmed (true)
// scores and confidence ≥ thres — whatever snapshot each call observed.
func TestSessionConcurrentQueryStress(t *testing.T) {
	src := testSource(t, 9000, 97)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	results := make([]*Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		qcfg := smallCfg(5)
		if i%2 == 1 {
			qcfg = smallCfg(3)
			qcfg.Window = 30
		}
		wg.Add(1)
		go func(i int, qcfg Config) {
			defer wg.Done()
			results[i], errs[i] = sess.Query(qcfg)
		}(i, qcfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i, r := range results {
		if r.Confidence < 0.9 {
			t.Fatalf("caller %d: confidence %v < 0.9", i, r.Confidence)
		}
		if r.IsWindow {
			continue // window scores are sample means, not exact counts
		}
		for k, id := range r.IDs {
			if int(r.Scores[k]) != src.TrueCountFast(id) {
				t.Fatalf("caller %d: frame %d score %v, truth %d",
					i, id, r.Scores[k], src.TrueCountFast(id))
			}
		}
	}
	if sess.Queries() != callers {
		t.Fatalf("Queries() = %d, want %d", sess.Queries(), callers)
	}
	if sess.CachedLabels() == 0 {
		t.Fatal("stress run left the label cache empty")
	}
}
