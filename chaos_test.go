package everest

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/everest-project/everest/internal/faultinject"
	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/simclock"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// The chaos suite drives the full serving pipeline — session, coalescing
// scheduler, oracle mux, shared label cache — through the fault paths
// DESIGN.md's "Failure semantics" section promises: injected transient
// errors retry and converge bit-identically, injected panics surface as
// typed *OracleError values, an oracle that stays down degrades (or
// fails) without leaking admission slots or goroutines, and cancellation
// never poisons siblings. Everything here runs under `make chaos` with
// the race detector.

func chaosFixture(t *testing.T) (*Index, *video.Synthetic, vision.UDF) {
	t.Helper()
	src := testSource(t, 2000, 21)
	udf := vision.CountUDF{Class: video.ClassCar}
	ix, err := BuildIndex(src, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	return ix, src, udf
}

// chaosSession wraps the fixture UDF with a fault schedule and opens a
// private session over it.
func chaosSession(t *testing.T, ix *Index, src *video.Synthetic, udf vision.UDF, schedule string) (*Session, *faultinject.UDF) {
	t.Helper()
	chaotic := faultinject.WrapUDF(udf, faultinject.MustParse(schedule), 1)
	s, err := NewSession(ix, src, chaotic)
	if err != nil {
		t.Fatal(err)
	}
	return s, chaotic
}

// TestChaosFaultFreeWrapperBitIdentical is the golden-determinism leg
// of the fault layer: with the chaos wrapper installed but an empty
// schedule, every query — plain, coalesced, muxed, at Procs 1/2/8 — is
// byte-identical (results AND simulated charges) to the unwrapped
// pipeline. The fault layer costs nothing when no fault fires.
func TestChaosFaultFreeWrapperBitIdentical(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	for _, procs := range []int{1, 2, 8} {
		for _, mode := range []struct {
			name     string
			coalesce bool
			mux      bool
		}{{"plain", false, false}, {"coalesce+mux", true, true}} {
			cfg := smallCfg(5)
			cfg.Procs = procs
			cfg.Coalesce = mode.coalesce
			cfg.UseMux = mode.mux

			clean, err := NewSession(ix, src, udf)
			if err != nil {
				t.Fatal(err)
			}
			want, err := clean.Query(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, inj := chaosSession(t, ix, src, udf, "")
			got, err := wrapped.Query(cfg)
			if err != nil {
				t.Fatalf("procs=%d %s: %v", procs, mode.name, err)
			}
			if !reflect.DeepEqual(goldenOf(got), goldenOf(want)) {
				t.Fatalf("procs=%d %s: empty fault schedule perturbed the query:\n%+v\nvs\n%+v",
					procs, mode.name, goldenOf(got), goldenOf(want))
			}
			if got.Retries != 0 || got.RetryBackoffMS != 0 || got.Degraded != nil {
				t.Fatalf("procs=%d %s: fault-free query reported fault activity: %+v", procs, mode.name, got)
			}
			if st := inj.Stats(); st.Transients+st.Panics+st.Slow != 0 {
				t.Fatalf("empty schedule injected faults: %+v", st)
			}
		}
	}
}

// TestChaosRetryConvergence locks the retry contract end to end: a
// schedule that fails the first three oracle dispatches transiently is
// invisible once exhausted — same IDs, scores, confidence and engine
// counters as the fault-free run — and costs exactly the capped
// exponential backoff (100+200+400 simulated ms), charged on the clock
// under the retry-backoff phase. Procs and the mux/coalesce path never
// change convergence.
func TestChaosRetryConvergence(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	clean, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Query(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []struct {
		name  string
		procs int
		mux   bool
	}{{"plain/procs=1", 1, false}, {"coalesce+mux/procs=8", 8, true}} {
		cfg := smallCfg(5)
		cfg.Procs = mode.procs
		cfg.Coalesce = mode.mux
		cfg.UseMux = mode.mux
		cfg.Retries = 5

		s, inj := chaosSession(t, ix, src, udf, "err:3")
		got, err := s.Query(cfg)
		if err != nil {
			t.Fatalf("%s: transient faults within the retry budget must converge: %v", mode.name, err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) ||
			got.Confidence != want.Confidence || !reflect.DeepEqual(got.EngineStats, want.EngineStats) {
			t.Fatalf("%s: converged result differs from fault-free run", mode.name)
		}
		if got.Retries != 3 {
			t.Fatalf("%s: %d retries recorded, want 3", mode.name, got.Retries)
		}
		if got.RetryBackoffMS != 700 {
			t.Fatalf("%s: backoff %v simulated ms, want 100+200+400=700", mode.name, got.RetryBackoffMS)
		}
		if ms := got.Clock.PhaseMS(simclock.PhaseRetryBackoff); ms != 700 {
			t.Fatalf("%s: clock charged %v retry-backoff ms, want 700", mode.name, ms)
		}
		// Backoff is the ONLY cost the faults added (tolerance only for
		// summation order; the per-phase charges above are exact).
		if diff := got.Clock.TotalMS() - want.Clock.TotalMS(); math.Abs(diff-700) > 1e-6 {
			t.Fatalf("%s: faults added %v ms beyond the fault-free run, want exactly the 700 backoff",
				mode.name, diff)
		}
		if st := inj.Stats(); st.Transients != 3 {
			t.Fatalf("%s: injector fired %d transients, want 3", mode.name, st.Transients)
		}
	}
}

// TestChaosPanicIsTypedOracleError is the crash-isolation contract: a
// UDF that panics mid-dispatch fails its query with a typed
// *OracleError carrying the recovered value — never a process crash,
// and never a retry (panics are not transient).
func TestChaosPanicIsTypedOracleError(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	for _, mux := range []bool{false, true} {
		cfg := smallCfg(5)
		cfg.UseMux = mux
		cfg.Retries = 5 // must NOT be consumed by a panic
		s, _ := chaosSession(t, ix, src, udf, "panic:1")
		res, err := s.Query(cfg)
		if err == nil {
			t.Fatalf("mux=%v: panicking oracle produced a result: %+v", mux, res)
		}
		var oe *OracleError
		if !errors.As(err, &oe) {
			t.Fatalf("mux=%v: error %v (%T) is not a typed *OracleError", mux, err, err)
		}
		if oe.Panic == nil {
			t.Fatalf("mux=%v: OracleError lost the recovered panic value: %+v", mux, oe)
		}
		if _, ok := oe.Panic.(faultinject.PanicValue); !ok {
			t.Fatalf("mux=%v: recovered panic value %v (%T) is not the injected one", mux, oe.Panic, oe.Panic)
		}
	}
}

// TestChaosOracleDownDegrades drives the oracle fully down (every
// dispatch fails) and locks graceful degradation: with DegradedOK the
// query returns a proxy-only answer marked Degraded{Reason:"oracle"}
// with every entry unconfirmed, the retry budget is spent and charged
// exactly (100+200 simulated ms for Retries=2), and — the cache-safety
// half of the contract — not one unconfirmed estimate is published to
// the session's label cache. Without DegradedOK the same fault surfaces
// as a wrapped *OracleError.
func TestChaosOracleDownDegrades(t *testing.T) {
	ix, src, udf := chaosFixture(t)

	cfg := smallCfg(5)
	cfg.Retries = 2
	cfg.DegradedOK = true
	s, _ := chaosSession(t, ix, src, udf, "err:100000")
	res, err := s.Query(cfg)
	if err != nil {
		t.Fatalf("DegradedOK query must not fail on an oracle outage: %v", err)
	}
	if res.Degraded == nil || res.Degraded.Reason != "oracle" {
		t.Fatalf("result not marked degraded by the outage: %+v", res.Degraded)
	}
	if len(res.IDs) != 5 {
		t.Fatalf("degraded answer has %d entries, want K=5", len(res.IDs))
	}
	// The outage confirms nothing new, so every unconfirmed entry is a
	// proxy estimate — but entries Phase 1's labeled samples already made
	// certain stay confirmed, so Unconfirmed is a non-empty subset of IDs.
	if len(res.Degraded.Unconfirmed) == 0 {
		t.Fatal("outage-degraded answer marks no entry unconfirmed")
	}
	inAnswer := make(map[int]bool, len(res.IDs))
	for _, id := range res.IDs {
		inAnswer[id] = true
	}
	for _, id := range res.Degraded.Unconfirmed {
		if !inAnswer[id] {
			t.Fatalf("unconfirmed ID %d is not in the answer %v", id, res.IDs)
		}
	}
	if res.Retries != 2 || res.RetryBackoffMS != 300 {
		t.Fatalf("retry budget: %d retries / %v backoff ms, want 2 / 100+200=300",
			res.Retries, res.RetryBackoffMS)
	}
	if ms := res.Clock.PhaseMS(simclock.PhaseRetryBackoff); ms != 300 {
		t.Fatalf("clock charged %v retry-backoff ms, want 300", ms)
	}
	if res.Degraded.SpentMS != res.Clock.TotalMS() {
		t.Fatalf("degradation marker records %v spent ms, clock says %v",
			res.Degraded.SpentMS, res.Clock.TotalMS())
	}
	if n := s.CachedLabels(); n != 0 {
		t.Fatalf("degraded query published %d labels; unconfirmed estimates must never reach the cache", n)
	}

	// Same outage without the opt-in: a typed failure, not a guess.
	cfg.DegradedOK = false
	s2, _ := chaosSession(t, ix, src, udf, "err:100000")
	if _, err := s2.Query(cfg); err == nil {
		t.Fatal("oracle outage without DegradedOK must fail")
	} else {
		var oe *OracleError
		if !errors.As(err, &oe) {
			t.Fatalf("outage error %v (%T) is not a typed *OracleError", err, err)
		}
	}
}

// TestChaosDeadline locks the deadline semantics on the simulated
// clock: a query whose simulated budget expires returns a degraded
// answer marked Reason:"deadline" when DegradedOK is set (cost
// accounting intact: the marker's SpentMS is the clock's total), and a
// wrapped ErrDeadline otherwise. No chaos schedule needed — deadlines
// are a property of the cost model, not of faults.
func TestChaosDeadline(t *testing.T) {
	ix, src, udf := chaosFixture(t)

	cfg := smallCfg(5)
	cfg.DeadlineMS = 1 // expires on the first budget check
	cfg.DegradedOK = true
	s, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	res, qerr := s.Query(cfg)
	if qerr != nil {
		t.Fatalf("DegradedOK deadline query must not fail: %v", qerr)
	}
	if res.Degraded == nil || res.Degraded.Reason != "deadline" {
		t.Fatalf("result not marked deadline-degraded: %+v", res.Degraded)
	}
	if res.Degraded.SpentMS != res.Clock.TotalMS() {
		t.Fatalf("degradation marker records %v spent ms, clock says %v",
			res.Degraded.SpentMS, res.Clock.TotalMS())
	}
	if len(res.IDs) != 5 {
		t.Fatalf("degraded answer has %d entries, want K=5", len(res.IDs))
	}

	cfg.DegradedOK = false
	if _, err := s.Query(cfg); !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired deadline without DegradedOK returned %v, want ErrDeadline", err)
	}

	// A deadline generous enough for the whole query changes nothing:
	// same bytes as the unbounded run.
	want, err := s.Query(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	roomy := smallCfg(5)
	roomy.DeadlineMS = 1e12
	got, err := s.Query(roomy)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) ||
		got.Degraded != nil {
		t.Fatal("an unexpired deadline perturbed the query")
	}
}

// TestChaosAdmissionGateNeverLeaks is the slot-leak audit: one hundred
// queries that all fail — panics, transient exhaustion, pre-cancelled
// contexts, across the plain, coalesced and muxed paths — against a
// tight admission gate. Every release path must fire: the gate returns
// to zero in-flight, no goroutines are left behind, and the session
// still serves a clean query afterwards.
func TestChaosAdmissionGateNeverLeaks(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	s, _ := chaosSession(t, ix, src, udf, "err:100000")

	// Warm the resident machinery (the mux dispatcher) before counting
	// goroutines, so the settle check below measures leaks, not lazies.
	warm := smallCfg(5)
	warm.UseMux = true
	if _, err := s.Query(warm); err == nil {
		t.Fatal("warmup query against a dead oracle should fail")
	}
	baseline := runtime.NumGoroutine()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 100
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		cfg := smallCfg(5)
		cfg.AdmissionLimit = 3
		cfg.Retries = i % 2 // exercise both fail-fast and retry-then-fail
		ctx := context.Background()
		switch i % 4 {
		case 1:
			cfg.Coalesce = true
		case 2:
			cfg.UseMux = true
		case 3:
			ctx = cancelled // cancelled before admission
		}
		wg.Add(1)
		go func(i int, ctx context.Context, cfg Config) {
			defer wg.Done()
			_, errs[i] = s.QueryCtx(ctx, cfg)
		}(i, ctx, cfg)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("faulted query %d succeeded against a dead oracle", i)
		}
		if i%4 == 3 && !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled query %d returned %v, want context.Canceled", i, err)
		}
	}
	if in := s.cache.InFlight(); in != 0 {
		t.Fatalf("admission gate leaked: %d units still in flight after %d failed queries", in, n)
	}
	// Goroutines settle back to the warm baseline (small slack for
	// runtime bookkeeping).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d after warmup", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The gate still admits: a clean session over the same cache serves.
	clean, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(5)
	cfg.AdmissionLimit = 3
	if _, err := clean.Query(cfg); err != nil {
		t.Fatalf("gate unusable after the chaos run: %v", err)
	}
}

// TestChaosConcurrentCancellationRace is the race-gate scenario: many
// coalesced+muxed queries in flight over one shared cache while half
// their contexts are cancelled mid-run. No deadlock, no slot leak, and
// every survivor's answer is bit-identical to the serial baseline —
// cancellation removes queries, never perturbs them.
func TestChaosConcurrentCancellationRace(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	baselineSession, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := baselineSession.Query(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}

	s, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	results := make([]*Result, n)
	errs := make([]error, n)
	cancels := make([]context.CancelFunc, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		cfg := smallCfg(5)
		cfg.Procs = 1 + i%2
		cfg.Coalesce = true
		cfg.UseMux = true
		wg.Add(1)
		go func(i int, ctx context.Context, cfg Config) {
			defer wg.Done()
			results[i], errs[i] = s.QueryCtx(ctx, cfg)
		}(i, ctx, cfg)
	}
	// Cancel every odd query at an arbitrary point in its run; the even
	// half must be untouched.
	for i := 1; i < n; i += 2 {
		cancels[i]()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		switch {
		case errs[i] == nil:
			if !reflect.DeepEqual(results[i].IDs, want.IDs) || !reflect.DeepEqual(results[i].Scores, want.Scores) {
				t.Fatalf("query %d survived cancellation chaos with a different answer", i)
			}
		case i%2 == 1 && errors.Is(errs[i], context.Canceled):
			// Cancelled in time — fine.
		default:
			t.Fatalf("query %d failed unexpectedly: %v", i, errs[i])
		}
	}
	for i := 0; i < n; i += 2 {
		if errs[i] != nil {
			t.Fatalf("never-cancelled query %d failed: %v", i, errs[i])
		}
	}
	if in := s.cache.InFlight(); in != 0 {
		t.Fatalf("cancellation chaos leaked %d admission units", in)
	}
	for _, cancel := range cancels {
		cancel()
	}
}

// TestChaosBatchSiblingIsolation checks member isolation on the batch
// paths: in a QueryBatch where one member's oracle schedule panics,
// only that member's slot fails (with the typed error), the siblings'
// results are intact, and the confirmed labels the batch paid for are
// published. A separate pre-cancelled batch returns ctx.Err() without
// wedging the session.
func TestChaosBatchSiblingIsolation(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	// Schedule: exactly one panic somewhere in the batch's dispatch
	// stream; every other call is clean.
	s, _ := chaosSession(t, ix, src, udf, "panic:1")
	cfgs := []Config{smallCfg(5), smallCfg(3), smallCfg(8)}
	results, err := s.QueryBatch(cfgs)
	if err == nil {
		t.Fatal("batch with a panicking member must surface its error")
	}
	var oe *OracleError
	if !errors.As(err, &oe) {
		t.Fatalf("batch error %v (%T) is not a typed *OracleError", err, err)
	}
	failed, ok := 0, 0
	for i, res := range results {
		if res == nil {
			failed++
			continue
		}
		ok++
		if len(res.IDs) != cfgs[i].K {
			t.Fatalf("surviving member %d answered %d entries, want %d", i, len(res.IDs), cfgs[i].K)
		}
	}
	if failed == 0 || ok == 0 {
		t.Fatalf("want a mix of failed and surviving members, got %d failed / %d ok", failed, ok)
	}
	if s.CachedLabels() == 0 {
		t.Fatal("surviving members' confirmed labels were not published")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.QueryBatchCtx(ctx, cfgs); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch returned %v, want context.Canceled", err)
	}
	if _, err := s.Query(smallCfg(5)); err != nil {
		t.Fatalf("session wedged after batch chaos: %v", err)
	}
}

// TestChaosSlowFaultsChargeOnly locks the latency-spike kind: slow
// faults never change results, only the simulated bill (charged to the
// injector's stats; the serving CLI wires them to the query clock).
func TestChaosSlowFaultsChargeOnly(t *testing.T) {
	ix, src, udf := chaosFixture(t)
	clean, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Query(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	s, inj := chaosSession(t, ix, src, udf, "slow:100000:40")
	got, err := s.Query(smallCfg(5))
	if err != nil {
		t.Fatalf("slow faults must not fail a query: %v", err)
	}
	if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) ||
		got.Retries != 0 || got.Degraded != nil {
		t.Fatal("latency spikes perturbed the result")
	}
	st := inj.Stats()
	if st.Slow == 0 || st.SpikeMS != float64(st.Slow)*40 {
		t.Fatalf("spike accounting off: %+v", st)
	}
}

// TestChaosParallelSharesDispatchBoundary locks what RunParallel gained
// by becoming an engine stage: its Phase 2 confirmations pass through
// the engine's one dispatch boundary, so everything that boundary and
// the plan promise — typed panic recovery, retry convergence with
// simulated backoff, the deadline with and without degradation, the
// §4.3 ablation knobs and the mux — holds under scale-out exactly as it
// does for Run. Every leg is compared against one fault-free 2-worker
// baseline.
func TestChaosParallelSharesDispatchBoundary(t *testing.T) {
	src := testSource(t, 2000, 21)
	udf := vision.CountUDF{Class: video.ClassCar}
	const workers = 2
	baseCfg := func() Config {
		cfg := smallCfg(10)
		cfg.Threshold = 0.99
		cfg.MinSamples = 150
		cfg.BatchSize = 2
		return cfg
	}
	want, err := RunParallel(src, udf, baseCfg(), workers)
	if err != nil {
		t.Fatal(err)
	}
	if want.EngineStats.Iterations < 10 || want.EngineStats.Pruned == 0 {
		t.Fatalf("baseline too easy to show the knobs: %+v", want.EngineStats)
	}
	chaotic := func(schedule string) *faultinject.UDF {
		return faultinject.WrapUDF(udf, faultinject.MustParse(schedule), 1)
	}

	t.Run("panic", func(t *testing.T) {
		_, err := RunParallel(src, chaotic("panic:1"), baseCfg(), workers)
		var oe *OracleError
		if !errors.As(err, &oe) {
			t.Fatalf("panicking Phase 2 batch returned %v (%T), want a typed *OracleError", err, err)
		}
		if _, ok := oe.Panic.(faultinject.PanicValue); !ok || len(oe.Frames) == 0 {
			t.Fatalf("OracleError lost the panic value or the batch: %+v", oe)
		}
	})

	t.Run("retries", func(t *testing.T) {
		cfg := baseCfg()
		cfg.Retries = 5
		got, err := RunParallel(src, chaotic("err:3"), cfg, workers)
		if err != nil {
			t.Fatalf("transient faults within the retry budget must converge: %v", err)
		}
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) ||
			got.Confidence != want.Confidence || !reflect.DeepEqual(got.EngineStats, want.EngineStats) {
			t.Fatal("converged result differs from the fault-free run")
		}
		if got.Retries != 3 || got.RetryBackoffMS != 700 || got.Clock.PhaseMS(simclock.PhaseRetryBackoff) != 700 {
			t.Fatalf("retries=%d backoff=%v charged=%v, want 3 retries and 100+200+400=700 ms",
				got.Retries, got.RetryBackoffMS, got.Clock.PhaseMS(simclock.PhaseRetryBackoff))
		}
		if got.Clock.TotalMS() != want.Clock.TotalMS()+700 {
			t.Fatalf("retried run cost %v, want fault-free %v + 700", got.Clock.TotalMS(), want.Clock.TotalMS())
		}
	})

	t.Run("deadline", func(t *testing.T) {
		cfg := baseCfg()
		cfg.DeadlineMS = 1 // Phase 1 alone overshoots it
		if _, err := RunParallel(src, udf, cfg, workers); !errors.Is(err, ErrDeadline) {
			t.Fatalf("expired deadline returned %v, want ErrDeadline", err)
		}
		cfg.DegradedOK = true
		got, err := RunParallel(src, udf, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Degraded == nil || got.Degraded.Reason != "deadline" || len(got.IDs) != cfg.K {
			t.Fatalf("degraded answer missing or mislabelled: %+v", got.Degraded)
		}
	})

	t.Run("ablation-knobs", func(t *testing.T) {
		cfg := baseCfg()
		cfg.DisableEarlyStop = true
		cfg.ResortOnce = true
		cfg.DisablePrefetch = true
		got, err := RunParallel(src, udf, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		st := got.EngineStats
		if st.Pruned != 0 || st.Examined <= want.EngineStats.Examined {
			t.Fatalf("DisableEarlyStop dropped: pruned %d, examined %d vs %d", st.Pruned, st.Examined, want.EngineStats.Examined)
		}
		if st.Iterations < 10 || st.Resorts != 1 {
			t.Fatalf("ResortOnce dropped: %d resorts over %d iterations", st.Resorts, st.Iterations)
		}
		// Confirmation costs ⌈misses/workers⌉ inferences per batch plus
		// the launch overhead; only unhidden decode adds a per-frame term.
		cost := cfg.Plan().Cost
		perBatch := math.Ceil(float64(cfg.BatchSize)/workers)*udf.OracleCostMS(cost) + cost.OracleCallMS
		prefetched := float64(st.OracleCalls) * perBatch
		if got := got.Clock.PhaseMS(simclock.PhaseConfirm) - prefetched; math.Abs(got-float64(st.Cleaned)*cost.DecodeMS) > 1e-6 {
			t.Fatalf("DisablePrefetch dropped: unhidden decode charge %v, want %d × %v", got, st.Cleaned, cost.DecodeMS)
		}
	})

	t.Run("mux", func(t *testing.T) {
		cfg := baseCfg()
		cfg.UseMux = true
		before := oraclemux.Shared().Stats()
		got, err := RunParallel(src, udf, cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		if oraclemux.Shared().Stats().Requests <= before.Requests {
			t.Fatal("UseMux dropped: no confirmation batch reached the process-wide mux")
		}
		if !reflect.DeepEqual(goldenOf(&got.Result), goldenOf(&want.Result)) {
			t.Fatal("mux-routed scale-out diverged from direct dispatch")
		}
	})
}
