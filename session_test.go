package everest

import (
	"testing"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func TestSessionMatchesIndexQuery(t *testing.T) {
	// The first query of a fresh session must return exactly what a plain
	// indexed query returns: an empty cache changes nothing.
	src := testSource(t, 9000, 61)
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := sess.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.IDs) != len(cached.IDs) {
		t.Fatalf("result sizes differ: %d vs %d", len(plain.IDs), len(cached.IDs))
	}
	for i := range plain.IDs {
		if plain.IDs[i] != cached.IDs[i] {
			t.Fatalf("results diverge at %d", i)
		}
	}
	if plain.Confidence != cached.Confidence {
		t.Fatalf("confidence diverges: %v vs %v", plain.Confidence, cached.Confidence)
	}
	if plain.Clock.TotalMS() != cached.Clock.TotalMS() {
		t.Fatalf("first-session-query cost %v differs from plain %v",
			cached.Clock.TotalMS(), plain.Clock.TotalMS())
	}
}

func TestSessionRepeatQueryIsOracleFree(t *testing.T) {
	// Re-running the identical query must clean nothing: every frame the
	// first run confirmed is already certain in the second run's D0.
	src := testSource(t, 9000, 67)
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
	first, err := sess.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels := sess.CachedLabels()
	if labels != first.EngineStats.Cleaned {
		t.Fatalf("cache has %d labels, first query cleaned %d", labels, first.EngineStats.Cleaned)
	}
	second, err := sess.Query(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if second.EngineStats.Cleaned != 0 {
		t.Fatalf("repeat query cleaned %d frames, want 0", second.EngineStats.Cleaned)
	}
	if sess.CachedLabels() != labels {
		t.Fatalf("repeat query grew the cache: %d -> %d", labels, sess.CachedLabels())
	}
	for i := range first.IDs {
		if first.IDs[i] != second.IDs[i] {
			t.Fatalf("repeat query changed the answer at %d", i)
		}
	}
	if sess.Queries() != 2 {
		t.Fatalf("Queries() = %d, want 2", sess.Queries())
	}
}

func TestSessionSmallerKIsFree(t *testing.T) {
	// After a Top-10, a Top-3 needs no new oracle work: its contenders are
	// a subset of frames already confirmed (plus the already-certain D0).
	src := testSource(t, 9000, 71)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(10))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	big := smallCfg(10)
	if _, err := sess.Query(big); err != nil {
		t.Fatal(err)
	}
	small := smallCfg(3)
	res, err := sess.Query(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.EngineStats.Cleaned != 0 {
		t.Fatalf("Top-3 after Top-10 cleaned %d frames, want 0", res.EngineStats.Cleaned)
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v", res.Confidence)
	}
}

func TestSessionMarginalCostDeclines(t *testing.T) {
	// A growing-threshold sequence: each later query can only reuse more,
	// so cumulative oracle work is sublinear in query count. We assert the
	// weaker, deterministic property that total cleaned across the
	// sequence is at most what independent queries would clean.
	src := testSource(t, 9000, 73)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	threses := []float64{0.5, 0.9, 0.99}

	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	var sessionCleaned, aloneCleaned int
	for _, th := range threses {
		cfg := smallCfg(5)
		cfg.Threshold = th
		res, err := sess.Query(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sessionCleaned += res.EngineStats.Cleaned

		alone, err := ix.Query(src, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		aloneCleaned += alone.EngineStats.Cleaned
	}
	if sessionCleaned > aloneCleaned {
		t.Fatalf("session cleaned %d frames, independent queries %d — cache made it worse",
			sessionCleaned, aloneCleaned)
	}
}

func TestSessionWindowQuerySeedsFrameCache(t *testing.T) {
	// Window confirmations sample frames; those exact scores then flow
	// into later frame queries through the cache.
	src := testSource(t, 9000, 79)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := smallCfg(3)
	wcfg.Window = 30
	wres, err := sess.Query(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	if !wres.IsWindow {
		t.Fatal("expected a window result")
	}
	if wres.EngineStats.Cleaned > 0 && sess.CachedLabels() == 0 {
		t.Fatal("window confirmations did not populate the frame cache")
	}
	fres, err := sess.Query(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if fres.Confidence < 0.9 {
		t.Fatalf("frame query after window query: confidence %v", fres.Confidence)
	}
}

// TestBatchAdmissionLimit is the strictest-positive-limit table: the cap
// a batch is admitted under, folded with engine.TighterLimit over its
// members' compiled plans the way Session.runIndependent and the
// scheduler's runGroup fold it.
func TestBatchAdmissionLimit(t *testing.T) {
	lim := func(ls ...int) []Config {
		cfgs := make([]Config, len(ls))
		for i, l := range ls {
			cfgs[i] = Config{AdmissionLimit: l}
		}
		return cfgs
	}
	cases := []struct {
		name string
		cfgs []Config
		want int
	}{
		{"empty batch", nil, 0},
		{"single unset", lim(0), 0},
		{"single positive", lim(3), 3},
		{"single negative", lim(-2), 0},
		{"all unset", lim(0, 0, 0), 0},
		{"all negative", lim(-1, -5, -2), 0},
		{"heterogeneous positives pick strictest", lim(5, 2, 9), 2},
		{"zero does not override a positive", lim(0, 4, 0), 4},
		{"negative does not override a positive", lim(-1, 4, -7), 4},
		{"positive then stricter", lim(3, 1), 1},
		{"stricter then looser", lim(1, 3), 1},
		{"mixed everything", lim(0, -3, 7, 2, 0, 11), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := 0
			for _, cfg := range c.cfgs {
				got = engine.TighterLimit(got, cfg.Plan().AdmissionLimit)
			}
			if got != c.want {
				t.Fatalf("admission limit of %v = %d, want %d", c.cfgs, got, c.want)
			}
		})
	}
}

func TestQueryBatchNegativeAdmissionLimitRuns(t *testing.T) {
	// A batch whose members explicitly disable admission (negative
	// limits) must run uncapped rather than deadlock or misbehave.
	src := testSource(t, 6000, 87)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(5)
	cfg.AdmissionLimit = -1
	results, err := sess.QueryBatch([]Config{cfg, cfg})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Confidence < 0.9 {
		t.Fatalf("negative-limit batch misbehaved: %v", results)
	}
}

func TestSessionValidation(t *testing.T) {
	src := testSource(t, 6000, 83)
	other := testSource(t, 5000, 84) // different length: not the indexed video
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(ix, other, udf); err == nil {
		t.Fatal("session over a different video must be rejected")
	}
	if _, err := NewSession(ix, src, vision.CountUDF{Class: video.ClassBus}); err == nil {
		t.Fatal("session over a different UDF must be rejected")
	}
	sess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Query(Config{K: 0}); err == nil {
		t.Fatal("invalid config must be rejected")
	}
}
