package everest

import (
	"slices"
	"sync"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestSharedSessionReuse is the cross-session work-sharing contract:
// separate Session objects created with NewSharedSession over the same
// (video, UDF) pair draw on one label store, so a query one session
// paid the oracle for is free in every other session — while private
// NewSession caches stay isolated.
func TestSharedSessionReuse(t *testing.T) {
	labelstore.ResetForTest()
	defer labelstore.ResetForTest()
	src := testSource(t, 9000, 41)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewSharedSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	first, err := a.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.EngineStats.Cleaned == 0 {
		t.Fatal("first shared query cleaned nothing; the reuse assertion below would be vacuous")
	}

	// A *different* shared session: same pair, fresh object, zero own
	// history. Its identical query must be oracle-free and bit-identical.
	b, err := NewSharedSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	if b.CachedLabels() != first.EngineStats.Cleaned {
		t.Fatalf("second session sees %d cached labels, first query cleaned %d",
			b.CachedLabels(), first.EngineStats.Cleaned)
	}
	reused, err := b.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reused.EngineStats.Cleaned != 0 || reused.EngineStats.OracleCalls != 0 {
		t.Fatalf("cross-session repeat cleaned %d frames in %d oracle calls, want 0 in 0",
			reused.EngineStats.Cleaned, reused.EngineStats.OracleCalls)
	}
	for i := range first.IDs {
		if first.IDs[i] != reused.IDs[i] || first.Scores[i] != reused.Scores[i] {
			t.Fatalf("cross-session reuse changed the answer at %d", i)
		}
	}
	if b.Queries() != 1 || a.Queries() != 1 {
		t.Fatalf("per-session query counters polluted: a=%d b=%d", a.Queries(), b.Queries())
	}

	// A private session must NOT see the shared labels.
	private, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	if private.CachedLabels() != 0 {
		t.Fatalf("private session starts with %d labels, want 0", private.CachedLabels())
	}
	alone, err := private.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if alone.EngineStats.Cleaned != first.EngineStats.Cleaned {
		t.Fatalf("private session cleaned %d, want the full %d — private caches must stay isolated",
			alone.EngineStats.Cleaned, first.EngineStats.Cleaned)
	}
}

// TestSharedSessionPairIsolation checks the cache key: a different UDF
// over the same video must not share labels (a score is only
// query-independent within one scoring function).
func TestSharedSessionPairIsolation(t *testing.T) {
	labelstore.ResetForTest()
	defer labelstore.ResetForTest()
	src := testSource(t, 6000, 43)
	car := vision.CountUDF{Class: video.ClassCar}
	bus := vision.CountUDF{Class: video.ClassBus}
	cfg := smallCfg(5)
	ixCar, err := BuildIndex(src, car, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ixBus, err := BuildIndex(src, bus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sCar, err := NewSharedSession(ixCar, src, car)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sCar.Query(cfg); err != nil {
		t.Fatal(err)
	}
	sBus, err := NewSharedSession(ixBus, src, bus)
	if err != nil {
		t.Fatal(err)
	}
	if sBus.CachedLabels() != 0 {
		t.Fatalf("bus-UDF session sees %d labels published by the car UDF", sBus.CachedLabels())
	}
}

// TestSessionConcurrentSharedPublish drives many shared sessions
// concurrently (free-running, mixed frame/window queries). Under -race
// this exercises the snapshot/publish path end to end; the assertions
// check every answer keeps the engine guarantee and the store converges
// to one agreed label set.
func TestSessionConcurrentSharedPublish(t *testing.T) {
	labelstore.ResetForTest()
	defer labelstore.ResetForTest()
	src := testSource(t, 9000, 47)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 8
	results := make([]*Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sess, err := NewSharedSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		qcfg := smallCfg(5)
		if i%2 == 1 {
			qcfg = smallCfg(3)
			qcfg.Window = 30
		}
		qcfg.AdmissionLimit = 4 // exercise the admission gate under load
		wg.Add(1)
		go func(i int, sess *Session, qcfg Config) {
			defer wg.Done()
			results[i], errs[i] = sess.Query(qcfg)
		}(i, sess, qcfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	for i, r := range results {
		if r.Confidence < 0.9 {
			t.Fatalf("session %d: confidence %v < 0.9", i, r.Confidence)
		}
		if r.IsWindow {
			continue // window scores are sample means, not exact counts
		}
		for k, id := range r.IDs {
			if int(r.Scores[k]) != src.TrueCountFast(id) {
				t.Fatalf("session %d: frame %d score %v, truth %d", i, id, r.Scores[k], src.TrueCountFast(id))
			}
		}
	}
	probe, err := NewSharedSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	if probe.CachedLabels() == 0 {
		t.Fatal("concurrent shared sessions left the process-wide cache empty")
	}
}

// TestSessionAdmissionLimitDeterminism checks the admission knob is
// scheduling-only: a batch run under the strictest limit returns
// exactly what the unconstrained batch returns.
func TestSessionAdmissionLimitDeterminism(t *testing.T) {
	src := testSource(t, 9000, 53)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	free, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	unconstrained, err := free.QueryBatch(slices.Repeat([]Config{cfg}, 3))
	if err != nil {
		t.Fatal(err)
	}
	gated, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	gcfg := cfg
	gcfg.AdmissionLimit = 1
	limited, err := gated.QueryBatch(slices.Repeat([]Config{gcfg}, 3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range unconstrained {
		assertSameResult(t, "admission-limited batch", limited[i], unconstrained[i])
	}
}
