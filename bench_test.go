// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs the
// corresponding harness experiment at a reduced scale and reports the
// headline numbers as custom metrics:
//
//	go test -bench=Fig4 -benchmem
//	go test -bench=. -benchmem            # everything
//
// cmd/experiments runs the same experiments at full scale with full
// tabular output.
package everest_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/harness"
	"github.com/everest-project/everest/internal/labelstore"
	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// benchScale keeps each figure's benchmark in the seconds range on one
// CPU core; cmd/experiments uses the full default scale.
func benchScale() harness.Scale {
	return harness.Scale{Frames: 4000, Seed: 1}
}

func reportQuality(b *testing.B, prec, speedup float64) {
	b.ReportMetric(prec, "precision")
	b.ReportMetric(speedup, "speedup")
}

func BenchmarkFig4Overall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig4(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var prec, speed float64
		n := 0
		for _, r := range rows {
			if r.System == "everest" {
				prec += r.Quality.Precision
				speed += r.Speedup
				n++
			}
		}
		reportQuality(b, prec/float64(n), speed/float64(n))
	}
}

func BenchmarkTable8Breakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Table8(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var cleaned, p1 float64
		for _, r := range rows {
			cleaned += r.CleanedFrac
			p1 += r.LabelShare + r.TrainShare + r.PopulateShare
		}
		b.ReportMetric(100*cleaned/float64(len(rows)), "%frames-cleaned")
		b.ReportMetric(100*p1/float64(len(rows)), "%phase1-share")
	}
}

func BenchmarkFig5K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig5(benchScale(), 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var prec, speed float64
		for _, r := range rows {
			prec += r.Quality.Precision
			speed += r.Speedup
		}
		reportQuality(b, prec/float64(len(rows)), speed/float64(len(rows)))
	}
}

func BenchmarkFig6Thres(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig6(benchScale(), 10)
		if err != nil {
			b.Fatal(err)
		}
		var prec, speed float64
		for _, r := range rows {
			prec += r.Quality.Precision
			speed += r.Speedup
		}
		reportQuality(b, prec/float64(len(rows)), speed/float64(len(rows)))
	}
}

func BenchmarkFig7Windows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig7(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var prec, speed float64
		for _, r := range rows {
			prec += r.Quality.Precision
			speed += r.Speedup
		}
		reportQuality(b, prec/float64(len(rows)), speed/float64(len(rows)))
	}
}

func BenchmarkFig8VisualRoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig8(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var prec, speed float64
		for _, r := range rows {
			prec += r.Quality.Precision
			speed += r.Speedup
		}
		reportQuality(b, prec/float64(len(rows)), speed/float64(len(rows)))
	}
}

func BenchmarkFig9Depth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.Fig9(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var prec, speed float64
		for _, r := range rows {
			prec += r.Quality.Precision
			speed += r.Speedup
		}
		reportQuality(b, prec/float64(len(rows)), speed/float64(len(rows)))
	}
}

func BenchmarkAblationEarlyStop(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationEarlyStop(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MS, "pruned-ms")
		b.ReportMetric(rows[1].MS, "exhaustive-ms")
	}
}

func BenchmarkAblationResort(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationResort(benchScale(), 10, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationBatch(benchScale(), 10, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDiff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationDiff(benchScale(), 10, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationPrefetch(benchScale(), 10, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.AblationSemantics(benchScale(), 10, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleoutScalability regenerates the RAM3S-style scale-out
// sweep (E1): wall-clock latency vs worker count.
func BenchmarkScaleoutScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.ScaleoutScalability(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		base, best := rows[0].WallMS, rows[0].WallMS
		for _, r := range rows {
			if r.WallMS < best {
				best = r.WallMS
			}
		}
		b.ReportMetric(base/best, "parallel-speedup")
		b.ReportMetric(rows[len(rows)-1].Quality.Precision, "precision")
	}
}

// BenchmarkSessionReuse regenerates the cross-query work-sharing study
// (E2): the marginal cost of a repeated query inside a session.
func BenchmarkSessionReuse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.SessionAmortization(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var sessionMS, aloneMS float64
		for _, r := range rows {
			sessionMS += r.SessionMS
			aloneMS += r.AloneMS
		}
		if sessionMS > 0 {
			b.ReportMetric(aloneMS/sessionMS, "work-sharing-gain")
		}
		b.ReportMetric(float64(rows[len(rows)-1].CacheSize), "cached-labels")
	}
}

// BenchmarkSessionConcurrent measures the steady-state concurrent-serving
// scenario: 8 identical queries answered at once from one long-lived
// session over a prebuilt index, with a label cache already warmed by
// earlier traffic (window queries sampling across the video plus strict
// frame queries). Phase 1 and the warm-up run once outside the timer, so
// each timed iteration is the marginal cost of serving one 8-caller
// batch entirely from cache: snapshot the label store, rebuild D0 with
// the cached labels certain, and run Phase 2 to its confident stop —
// the per-request hot path of the millions-of-users scenario.
func BenchmarkSessionConcurrent(b *testing.B) {
	const callers = 8
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.Build(4000)
	if err != nil {
		b.Fatal(err)
	}
	udf := vision.CountUDF{Class: src.TargetClass()}
	cfg := everest.Config{
		K: 10, Threshold: 0.9, Seed: 1,
		Proxy: cmdn.Config{Grid: []cmdn.Hyper{
			{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40},
		}},
	}
	ix, err := everest.BuildIndex(src, udf, cfg)
	if err != nil {
		b.Fatal(err)
	}
	sess, err := everest.NewSession(ix, src, udf)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the cache the way mixed earlier traffic would: window queries
	// confirm by sampling frames all over the video, strict thresholds
	// clean deep past the default stop.
	warm := cfg
	warm.Threshold = 0.9999
	warm.K = 50
	warmups := []everest.Config{warm}
	for _, w := range []int{20, 25, 30, 35, 40, 50} {
		wc := cfg
		wc.Window = w
		wc.Threshold = 0.999
		warmups = append(warmups, wc)
	}
	for _, w := range warmups {
		if _, err := sess.Query(w); err != nil {
			b.Fatal(err)
		}
	}
	// One untimed run of the serving batch itself, so every timed
	// iteration is oracle-free and identical.
	if _, err := sess.QueryBatch(slices.Repeat([]everest.Config{cfg}, callers)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := sess.QueryBatch(slices.Repeat([]everest.Config{cfg}, callers))
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(callers), "concurrent-queries")
			b.ReportMetric(results[0].Confidence, "confidence")
			b.ReportMetric(float64(sess.CachedLabels()), "cached-labels")
		}
	}
}

// BenchmarkSessionSharedCache measures cross-session label reuse: 6
// separate user sessions over the same (video, UDF) pair each issue the
// same query, once through the process-wide shared cache
// (NewSharedSession) and once as fully independent sessions. With the
// shared cache only the first session pays the oracle; the metrics
// report the total oracle bill of each mode, and the headline ns/op is
// the shared-mode serving cost.
func BenchmarkSessionSharedCache(b *testing.B) {
	const sessions = 6
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.Build(4000)
	if err != nil {
		b.Fatal(err)
	}
	udf := vision.CountUDF{Class: src.TargetClass()}
	cfg := everest.Config{
		K: 10, Threshold: 0.9, Seed: 1,
		Proxy: cmdn.Config{Grid: []cmdn.Hyper{
			{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40},
		}},
	}
	ix, err := everest.BuildIndex(src, udf, cfg)
	if err != nil {
		b.Fatal(err)
	}
	runAll := func(newSession func() (*everest.Session, error)) (oracleCalls, cleaned int) {
		for s := 0; s < sessions; s++ {
			sess, err := newSession()
			if err != nil {
				b.Fatal(err)
			}
			res, err := sess.Query(cfg)
			if err != nil {
				b.Fatal(err)
			}
			oracleCalls += res.EngineStats.OracleCalls
			cleaned += res.EngineStats.Cleaned
		}
		return oracleCalls, cleaned
	}
	b.ResetTimer()
	var sharedCalls, sharedCleaned, aloneCalls int
	for i := 0; i < b.N; i++ {
		labelstore.ResetForTest() // every iteration starts cache-cold
		sharedCalls, sharedCleaned = runAll(func() (*everest.Session, error) {
			return everest.NewSharedSession(ix, src, udf)
		})
	}
	b.StopTimer()
	aloneCalls, _ = runAll(func() (*everest.Session, error) {
		return everest.NewSession(ix, src, udf)
	})
	b.ReportMetric(float64(sharedCalls), "oracle-calls-shared")
	b.ReportMetric(float64(aloneCalls), "oracle-calls-independent")
	b.ReportMetric(float64(sharedCleaned), "cleaned-shared")
	if sharedCalls >= aloneCalls {
		b.Fatalf("shared sessions issued %d oracle calls, independent %d — cross-session reuse failed",
			sharedCalls, aloneCalls)
	}
}

// BenchmarkSessionCoalesced measures the cross-query coalescing
// scheduler: 6 compatible queries (different K and thres over one
// indexed video) served as one coalesced group against N fully
// independent runs of the same queries. The group pays one Phase 1 pass
// (the prebuilt index, amortized outside the timer, where independent
// everest.Run calls would each pay their own) and — because the group
// shares a single label overlay — strictly fewer oracle confirmations
// and calls than the independent runs. Each timed iteration serves the
// whole group from a cold cache: the timed path is plan compilation,
// relation builds over the shared overlay and the merged Phase 2 loops.
func BenchmarkSessionCoalesced(b *testing.B) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		b.Fatal(err)
	}
	src, err := spec.Build(4000)
	if err != nil {
		b.Fatal(err)
	}
	udf := vision.CountUDF{Class: src.TargetClass()}
	base := everest.Config{
		K: 10, Threshold: 0.9, Seed: 1,
		Proxy: cmdn.Config{Grid: []cmdn.Hyper{
			{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40},
		}},
	}
	mkCfgs := func(coalesce bool) []everest.Config {
		ks := []int{10, 5, 3, 20, 8, 10}
		ths := []float64{0.9, 0.9, 0.99, 0.9, 0.95, 0.99}
		cfgs := make([]everest.Config, len(ks))
		for i := range ks {
			cfgs[i] = base
			cfgs[i].K = ks[i]
			cfgs[i].Threshold = ths[i]
			cfgs[i].Coalesce = coalesce
		}
		return cfgs
	}
	ix, err := everest.BuildIndex(src, udf, base)
	if err != nil {
		b.Fatal(err)
	}
	// Independent baseline, outside the timer: every query pays its own
	// oracle bill from a cold cache.
	var indepCleaned, indepCalls int
	for _, cfg := range mkCfgs(false) {
		res, err := ix.Query(src, udf, cfg)
		if err != nil {
			b.Fatal(err)
		}
		indepCleaned += res.EngineStats.Cleaned
		indepCalls += res.EngineStats.OracleCalls
	}
	b.ResetTimer()
	var coalCleaned, coalCalls int
	for i := 0; i < b.N; i++ {
		sess, err := everest.NewSession(ix, src, udf) // cold cache per iteration
		if err != nil {
			b.Fatal(err)
		}
		results, err := sess.QueryBatch(mkCfgs(true))
		if err != nil {
			b.Fatal(err)
		}
		coalCleaned, coalCalls = 0, 0
		for _, res := range results {
			coalCleaned += res.EngineStats.Cleaned
			coalCalls += res.EngineStats.OracleCalls
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(coalCleaned), "cleaned-coalesced")
	b.ReportMetric(float64(indepCleaned), "cleaned-independent")
	b.ReportMetric(float64(coalCalls), "oracle-calls-coalesced")
	b.ReportMetric(float64(indepCalls), "oracle-calls-independent")
	if coalCalls >= indepCalls || coalCleaned >= indepCleaned {
		b.Fatalf("coalesced group paid %d calls / %d cleaned, independent runs %d / %d — coalescing saved nothing",
			coalCalls, coalCleaned, indepCalls, indepCleaned)
	}
}

// latencyUDF delegates scoring to its inner UDF after a real wall-clock
// pause per invocation — the host-visible latency of one device launch.
// The pause is what gives concurrent queries something to overlap with:
// while one launch is in flight the other in-flight runs reach their
// own confirmation calls and queue on the mux, exactly as they would
// against a real GPU-resident oracle (synthetic scoring alone completes
// in microseconds, so on a small machine no queue would ever form).
// Scores are bit-identical to the inner UDF's.
type latencyUDF struct {
	vision.UDF
	launch time.Duration
}

func (u latencyUDF) Score(src video.Source, ids []int) []float64 {
	time.Sleep(u.launch)
	return u.UDF.Score(src, ids)
}

// BenchmarkOracleMux measures the process-wide oracle multiplexer in
// the M×N cross-video serving scenario: 3 indexed videos × 4 queries
// each, all in flight together with UseMux, funnel every Phase 2
// confirmation batch through one GPU-style dispatch queue (whose
// launches carry a simulated 200µs host latency — see latencyUDF).
// Without the mux each plan-level batch is its own device launch, so
// the request count IS the independent launch count; the metrics
// report how many consolidated launches the same traffic actually
// dispatched and the simulated launch overhead that saved. Results and
// per-query charges are bit-identical either way
// (TestOracleMuxCrossVideoBitIdentical, TestGoldenOracleMux); this
// benchmark prices the device side.
func BenchmarkOracleMux(b *testing.B) {
	type target struct {
		src *video.Synthetic
		ix  *everest.Index
	}
	base := everest.Config{
		K: 10, Threshold: 0.9, Seed: 1,
		Proxy:      cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 30}}, Epochs: 30},
		SampleFrac: 0.05,
	}
	// Indexes are built with the raw UDF (no launch latency in Phase 1
	// setup); the served queries score through the latency wrapper.
	udf := latencyUDF{UDF: vision.CountUDF{Class: video.ClassCar}, launch: 200 * time.Microsecond}
	var targets []target
	for _, seed := range []uint64{61, 62, 63} {
		src, err := video.NewSynthetic(video.Config{
			Name: "mux-bench", Kind: video.KindTraffic, Class: video.ClassCar,
			Frames: 3000, FPS: 30, Seed: seed, MeanPopulation: 3, BurstRate: 3,
			DailyCycle: true, DistractorPopulation: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ix, err := everest.BuildIndex(src, udf.UDF, base)
		if err != nil {
			b.Fatal(err)
		}
		targets = append(targets, target{src: src, ix: ix})
	}
	mkCfgs := func() []everest.Config {
		ks := []int{10, 5, 3, 8}
		ths := []float64{0.9, 0.99, 0.9, 0.95}
		cfgs := make([]everest.Config, len(ks))
		for i := range ks {
			cfgs[i] = base
			cfgs[i].K = ks[i]
			cfgs[i].Threshold = ths[i]
			cfgs[i].UseMux = true
		}
		return cfgs
	}

	b.ResetTimer()
	var requests, launches, frames int
	var savedMS float64
	for i := 0; i < b.N; i++ {
		before := oraclemux.Shared().Stats()
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		for _, tg := range targets {
			for _, cfg := range mkCfgs() {
				wg.Add(1)
				go func(tg target, cfg everest.Config) {
					defer wg.Done()
					if _, err := tg.ix.Query(tg.src, udf, cfg); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
					}
				}(tg, cfg)
			}
		}
		wg.Wait()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
		after := oraclemux.Shared().Stats()
		requests += after.Requests - before.Requests
		launches += after.Launches - before.Launches
		frames += after.Frames - before.Frames
		savedMS += after.SavedMS - before.SavedMS
	}
	b.StopTimer()
	perIter := float64(b.N)
	b.ReportMetric(float64(requests)/perIter, "dispatches-independent")
	b.ReportMetric(float64(launches)/perIter, "launches-consolidated")
	b.ReportMetric(float64(requests)/float64(launches), "consolidation-x")
	b.ReportMetric(float64(frames)/perIter, "oracle-frames")
	b.ReportMetric(savedMS/perIter, "saved-launch-ms")
	if launches >= requests {
		b.Fatalf("mux dispatched %d launches for %d requests — consolidation saved nothing", launches, requests)
	}
}

// BenchmarkSlidingWindows regenerates the sliding-vs-tumbling comparison
// (E3): the cleaning price of the dependence-safe union bound.
func BenchmarkSlidingWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.SlidingWindows(benchScale(), 5, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		var prec float64
		for _, r := range rows {
			prec += r.Quality.Precision
		}
		b.ReportMetric(prec/float64(len(rows)), "precision")
		b.ReportMetric(float64(rows[len(rows)-1].Cleaned), "cleaned-overlapping")
	}
}

// BenchmarkAblationBound regenerates ablation A7: exact product vs union
// bound on the same frame query.
func BenchmarkAblationBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := harness.AblationBound(benchScale(), 10, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MS, "exact-ms")
		b.ReportMetric(rows[1].MS, "union-ms")
	}
}
