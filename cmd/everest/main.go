// Command everest runs a single Top-K or Top-K-window query against one of
// the built-in synthetic datasets and prints the guaranteed result with
// its simulated cost breakdown.
//
// Usage:
//
//	everest -dataset Taipei-bus -k 50 -thres 0.9
//	everest -dataset Archie -k 10 -window 30
//	everest -dataset Archie -k 10 -window 300 -stride 30   # sliding windows
//	everest -dataset Archie -k 50 -parallel 4              # scale-out
//	everest -dataset Archie -k 10 -concurrent 8            # concurrent serving from one session
//	everest -dataset Archie -k 10 -concurrent 8 -coalesce  # one coalesced engine run for all 8
//	everest -dataset Archie -k 10 -concurrent 8 -shared -mux  # one oracle dispatch queue across sessions
//	everest -dataset Archie -k 10 -deadline 50000 -degraded-ok  # bounded: best-effort answer if the simulated budget expires
//	everest -dataset Archie -k 10 -chaos 'err:3' -retries 5     # inject transient oracle faults, retry through them
//	everest -dataset Archie -k 10 -concurrent 4 -chaos 'err:2,slow:5:250' -retries 3 -degraded-ok
//	everest -dataset Archie -k 10 -follow                      # live camera: chunked ingest, continuous top-K deltas
//	everest -dataset Archie -k 10 -follow -chunk 150 -segment 900 -lag 4  # tighter staleness bound, faster model refresh
//	everest -dataset Dashcam-California -udf tailgate -k 50
//	everest -query 'SELECT TOP 10 WINDOWS OF 300 EVERY 30 FROM Archie RANK BY count(car)' [-explain]
//	everest -query 'EXPLAIN ANALYZE SELECT TOP 10 FRAMES FROM Archie RANK BY count(car)'  # cost-based planner chooses the knobs, runs the plan, reports predicted vs actual
//	everest -query 'SELECT TOP 5 FRAMES FROM Archie RANK BY count(car); SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car)'  # script: shared sub-plans, one budget
//	everest -script queries.eql                            # run a ';'-separated statement file on one shared session
//	everest -script queries.eql -explain                   # whole-script plan: units, shared relations, one-budget cost table
//	everest -repl
//	everest -list
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/eql"
	"github.com/everest-project/everest/internal/faultinject"
	"github.com/everest-project/everest/internal/oraclemux"
	"github.com/everest-project/everest/internal/repl"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

func main() {
	var (
		dataset      = flag.String("dataset", "Archie", "dataset name (see -list)")
		k            = flag.Int("k", 50, "result size K")
		thres        = flag.Float64("thres", 0.9, "probabilistic guarantee threshold")
		window       = flag.Int("window", 0, "window size in frames (0 = frame query)")
		stride       = flag.Int("stride", 0, "window stride in frames (0 = tumbling; < window slides with the union bound)")
		workers      = flag.Int("parallel", 1, "scale-out worker count")
		frames       = flag.Int("frames", 0, "override frame count (0 = dataset default)")
		udfName      = flag.String("udf", "count", "scoring UDF: count | tailgate | sentiment")
		seed         = flag.Uint64("seed", 1, "random seed")
		procs        = flag.Int("procs", 0, "CPU workers for the execution engine (0 = all cores; results are identical for any value)")
		conc         = flag.Int("concurrent", 0, "serve the query N times at once as one Session.QueryBatch of N copies over one private session, or with -shared from N sessions on one cache (builds or loads an index first)")
		shared       = flag.Bool("shared", false, "with -concurrent: serve from N distinct sessions joined to the process-wide (video, UDF) label cache instead of one private session")
		admit        = flag.Int("admit", 0, "admission control: cap on concurrent oracle-heavy query batches per label cache (0 = no cap)")
		coalesce     = flag.Bool("coalesce", false, "with -concurrent: route queries through the cross-query coalescing scheduler (one engine run per compatible group; overlapping frames labeled and charged once)")
		mux          = flag.Bool("mux", false, "route Phase 2 oracle confirmation batches through the process-wide oracle multiplexer: in-flight batches from all runs consolidate into device batches (fewer simulated launches; results and per-query charges unchanged)")
		deadline     = flag.Float64("deadline", 0, "simulated deadline budget per query in ms (0 = none); an expired deadline fails the query unless -degraded-ok")
		retries      = flag.Int("retries", 0, "retries per transient oracle failure before the query fails (capped exponential simulated backoff)")
		retryBackoff = flag.Float64("retry-backoff", 0, "initial simulated retry backoff in ms, doubling per attempt up to 32x the base (0 with -retries = 100)")
		degradedOK   = flag.Bool("degraded-ok", false, "permit explicitly marked best-effort answers when the oracle stays down past the retry budget or the deadline expires")
		chaos        = flag.String("chaos", "", "fault-injection schedule on the oracle dispatch path: comma-separated [start@]kind[:count][:ms][~prob] items, kind err|panic|slow (e.g. 'err:3,5@panic,slow:10:250'); deterministic per -seed")
		list         = flag.Bool("list", false, "list datasets and exit")
		query        = flag.String("query", "", `EQL statement or ';'-separated script, e.g. 'SELECT TOP 50 FRAMES FROM "Taipei-bus" RANK BY count(car) THRESHOLD 0.9'`)
		script       = flag.String("script", "", "run an EQL statement file (';'-separated statements) as one coordinated script on a shared session")
		explain      = flag.Bool("explain", false, "describe the EQL query's (or script's) plan without running it")
		shell        = flag.Bool("repl", false, "interactive EQL shell (ingest-once, session-shared queries)")
		saveIx       = flag.String("saveindex", "", "run Phase 1 only and save an ingestion index to this file (atomic write, checksummed format)")
		useIx        = flag.String("useindex", "", "answer from a saved ingestion index (Phase 2 only)")
		durableDir   = flag.String("durable-dir", "", "make the serving label cache crash-safe: log every published label to a checksummed WAL with atomic checkpoints in this directory, and recover the surviving labels on start (the query is then served from a shared session)")
		follow       = flag.Bool("follow", false, "live-camera mode: replay the dataset as a chunked feed, ingest incrementally, and print continuous top-K answer deltas as segments close")
		chunk        = flag.Int("chunk", 300, "with -follow: frames per arriving chunk (300 = 10 s at 30 fps)")
		segment      = flag.Int("segment", 1800, "with -follow: frames per index segment — the model-refresh and answer-update granularity")
		lag          = flag.Int("lag", 0, "with -follow: staleness bound in chunks — close the open segment early once the answer falls this many chunks behind the frontier (0 = update at segment closes only)")
		coldStart    = flag.Bool("cold", false, "with -follow: retrain the full CMDN grid at every segment close instead of warm-refreshing the previous segment's model")
		drift        = flag.Float64("drift", 0, "with -follow: warm-refresh drift tolerance in holdout NLL (0 = default 0.5); raise for feeds whose score distribution cycles")
	)
	flag.Parse()

	if *shell {
		if err := repl.New(os.Stdout).Run(os.Stdin); err != nil {
			fatal(err)
		}
		return
	}

	if *script != "" {
		data, err := os.ReadFile(*script)
		if err != nil {
			fatal(err)
		}
		if err := runScript(os.Stdout, string(data), *explain); err != nil {
			fatal(err)
		}
		return
	}

	if *query != "" {
		if err := runQuery(os.Stdout, *query, *explain); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		fmt.Printf("%-22s %-8s %12s %8s\n", "name", "object", "paper-frames", "hours")
		for _, d := range video.Datasets() {
			fmt.Printf("%-22s %-8s %12d %8.1f\n", d.Name, d.Config.Class, d.PaperFrames, d.PaperHours)
		}
		return
	}

	spec, err := video.DatasetByName(*dataset)
	if err != nil {
		fatal(err)
	}
	src, err := spec.Build(*frames)
	if err != nil {
		fatal(err)
	}

	var udf vision.UDF
	switch *udfName {
	case "count":
		udf = vision.CountUDF{Class: src.TargetClass()}
	case "tailgate":
		udf = vision.TailgateUDF{}
	case "sentiment":
		udf = vision.SentimentUDF{}
	default:
		fatal(fmt.Errorf("unknown UDF %q", *udfName))
	}

	// -chaos wraps the UDF's dispatch boundary with a deterministic fault
	// schedule. Phase 1 ingestion is untouched (injection fires on the
	// serving-path TryScore contract only), so the same index serves
	// faulted and clean queries.
	var chaosUDF *faultinject.UDF
	if *chaos != "" {
		sched, err := faultinject.Parse(*chaos)
		if err != nil {
			fatal(err)
		}
		chaosUDF = faultinject.WrapUDF(udf, sched, *seed)
		udf = chaosUDF
	}

	cfg := everest.Config{
		K:              *k,
		Threshold:      *thres,
		Window:         *window,
		Stride:         *stride,
		Seed:           *seed,
		Procs:          *procs,
		AdmissionLimit: *admit,
		Coalesce:       *coalesce,
		UseMux:         *mux,
		DeadlineMS:     *deadline,
		Retries:        *retries,
		RetryBackoffMS: *retryBackoff,
		DegradedOK:     *degradedOK,
		DurableDir:     *durableDir,
	}

	if *follow {
		if err := runFollow(src, udf, cfg, *segment, *chunk, *lag, !*coldStart, *drift); err != nil {
			fatal(err)
		}
		return
	}

	if *saveIx != "" {
		ix, err := everest.BuildIndex(src, udf, cfg)
		if err != nil {
			fatal(err)
		}
		if err := ix.SaveFile(*saveIx); err != nil {
			fatal(err)
		}
		fmt.Printf("index for %s / %s written to %s (ingest cost %.0f sim-ms, %d retained frames)\n",
			ix.Dataset(), ix.UDFName(), *saveIx, ix.IngestMS(), ix.Info().Retained)
		return
	}

	fmt.Printf("everest: Top-%d over %s (%d frames, %d fps), UDF %s, thres %.2f",
		*k, src.Name(), src.NumFrames(), src.FPS(), udf.Name(), *thres)
	if *window > 0 {
		fmt.Printf(", window %d frames", *window)
	}
	fmt.Println()

	if *conc > 0 {
		if err := runConcurrent(src, udf, cfg, *useIx, *conc, *shared); err != nil {
			fatal(err)
		}
		maybePrintMuxStats(*mux)
		maybePrintChaosStats(chaosUDF)
		return
	}

	if *durableDir != "" {
		res, err := runDurable(src, udf, cfg, *useIx, *durableDir)
		if err != nil {
			fatal(err)
		}
		printResult(os.Stdout, res, src.FPS(), "")
		maybePrintMuxStats(*mux)
		maybePrintChaosStats(chaosUDF)
		return
	}

	var res *everest.Result
	if *useIx != "" {
		ix, err := everest.LoadFile(*useIx)
		if err != nil {
			fatal(err)
		}
		res, err = ix.Query(src, udf, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(served from index %s; ingest cost %.0f sim-ms amortized)\n", *useIx, ix.IngestMS())
	} else if *workers > 1 {
		pres, err := everest.RunParallel(src, udf, cfg, *workers)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("(scale-out: %d workers; phase 1 bill %.0f sim-ms, BSP wall below)\n",
			pres.Workers, pres.WorkerSumMS)
		res = &pres.Result
	} else {
		var err error
		res, err = everest.Run(src, udf, cfg)
		if err != nil {
			fatal(err)
		}
	}

	printResult(os.Stdout, res, src.FPS(), "")
	maybePrintMuxStats(*mux)
	maybePrintChaosStats(chaosUDF)
}

// runFollow replays the dataset as a live camera: frames arrive in
// fixed-size chunks, Phase 1 runs incrementally as they land, and the
// query's top-K answer is kept continuously updated — each segment
// close prints how the answer changed rather than a from-scratch
// result.
func runFollow(src video.Source, udf vision.UDF, cfg everest.Config, segment, chunk, lag int, warm bool, drift float64) error {
	fps := src.FPS()
	mode := "warm CMDN refresh (auto drift fallback)"
	if !warm {
		mode = "full CMDN retrain per segment"
	}
	fmt.Printf("live follow: top-%d over %s, %d-frame chunks, %d-frame segments, %s\n\n",
		cfg.K, src.Name(), chunk, segment, mode)
	ls, err := everest.OpenLive(src, udf, cfg, everest.LiveConfig{
		SegmentFrames: segment,
		Warm:          warm,
		MaxLagChunks:  lag,
		DriftNLL:      drift,
		OnDelta:       func(d everest.LiveDelta) { printDelta(d, fps) },
	})
	if err != nil {
		return err
	}

	n := src.NumFrames()
	for sent := 0; sent < n; sent += chunk {
		c := chunk
		if sent+c > n {
			c = n - sent
		}
		if err := ls.Append(c); err != nil {
			return err
		}
	}
	if err := ls.Seal(); err != nil {
		return err
	}

	st := ls.Stats()
	fmt.Printf("\nfeed sealed at frame %d: %d chunks, %d segments (%d warm refreshes, %d full trains, %d drift fallbacks), %d eager labels, %d answer updates\n",
		ls.Frontier(), st.Chunks, st.Segments, st.WarmRefreshes, st.FullTrains, st.DriftFallbacks, st.EagerLabels, st.Deltas)
	if st.ForcedCloses > 0 {
		fmt.Printf("staleness bound forced %d early segment closes\n", st.ForcedCloses)
	}
	fmt.Printf("ingest cost %.0f sim-ms (%.2f sim-ms/frame amortized)\n",
		ls.IngestMS(), ls.IngestMS()/float64(ls.Frontier()))
	if a := ls.Answer(); a != nil {
		fmt.Printf("\nconverged answer (confidence %.4f):\n", a.Confidence)
		for i, id := range a.IDs {
			fmt.Printf("  #%-3d frame %-8d t=%8.1fs  score %.2f\n",
				i+1, id, float64(id)/float64(fps), a.Scores[i])
		}
	}
	return nil
}

// printDelta renders one continuous-query update: what changed, then
// the full answer it leaves behind.
func printDelta(d everest.LiveDelta, fps int) {
	fmt.Printf("t=%7.1fs  answer #%d", float64(d.Frontier)/float64(fps), d.Seq)
	switch {
	case d.Seq == 0:
		fmt.Printf("  initial top-%d", len(d.IDs))
	case len(d.Entered)+len(d.Left)+len(d.Reordered) == 0:
		fmt.Printf("  unchanged")
	default:
		if len(d.Entered) > 0 {
			fmt.Printf("  +%v", d.Entered)
		}
		if len(d.Left) > 0 {
			fmt.Printf("  -%v", d.Left)
		}
		if len(d.Reordered) > 0 {
			fmt.Printf("  ~%v", d.Reordered)
		}
	}
	fmt.Printf("  (confidence %.4f, %.0f sim-ms)\n", d.Confidence, d.QueryMS)
	for i, id := range d.IDs {
		fmt.Printf("    #%-3d frame %-8d score %.2f\n", i+1, id, d.Scores[i])
	}
}

// maybePrintChaosStats reports what the -chaos fault injector actually
// did — the ground truth the per-query retry/degraded counters are read
// against.
func maybePrintChaosStats(u *faultinject.UDF) {
	if u == nil {
		return
	}
	st := u.Stats()
	fmt.Printf("\nchaos: %d oracle dispatches saw %d transient errors, %d panics, %d latency spikes (+%.0f sim-ms)\n",
		st.Calls, st.Transients, st.Panics, st.Slow, st.SpikeMS)
}

// printServingStats consolidates the fault-layer counters of a multi-
// query run: retries attempted, simulated backoff charged, and how many
// queries returned explicitly degraded answers.
func printServingStats(results []*everest.Result) {
	retries, degraded := 0, 0
	backoffMS := 0.0
	for _, r := range results {
		if r == nil {
			continue
		}
		retries += r.Retries
		backoffMS += r.RetryBackoffMS
		if r.Degraded != nil {
			degraded++
		}
	}
	if retries == 0 && degraded == 0 {
		return
	}
	fmt.Printf("\nfault layer: %d retries attempted (%.0f sim-ms simulated backoff), %d degraded queries\n",
		retries, backoffMS, degraded)
}

// maybePrintMuxStats reports the process-wide oracle multiplexer's
// device-side consolidation after a -mux run. Per-query results and
// simulated charges are unaffected by the mux; this is the device
// accounting — how many plan-level confirmation batches shared a
// launch.
func maybePrintMuxStats(enabled bool) {
	if !enabled {
		return
	}
	st := oraclemux.Shared().Stats()
	if st.Launches == 0 {
		fmt.Println("\noracle mux: no confirmation batches dispatched")
		return
	}
	fmt.Printf("\noracle mux: %d confirmation batches in %d device launches (%.2fx consolidation), %d frames scored, %.0f sim-ms launch overhead saved\n",
		st.Requests, st.Launches, float64(st.Requests)/float64(st.Launches), st.Frames, st.SavedMS)
}

// runConcurrent answers the same query n times at once: from one
// private session by default, or — with shared — from n distinct
// sessions all joined to the process-wide (video, UDF) label cache, the
// many-users serving scenario. A saved index is used when path is
// non-empty, otherwise Phase 1 runs once up front. In both modes the
// answers pay the oracle bill of roughly a single query: the private
// session batches over one snapshot (bit-identical answers), the shared
// sessions reuse each other's published labels.
func runConcurrent(src video.Source, udf vision.UDF, cfg everest.Config, path string, n int, shared bool) error {
	ix, err := loadOrBuildIndex(src, udf, cfg, path)
	if err != nil {
		return err
	}
	if shared {
		return runShared(src, udf, cfg, ix, n)
	}
	sess, err := everest.NewSession(ix, src, udf)
	if err != nil {
		return err
	}
	results, err := sess.QueryBatch(slices.Repeat([]everest.Config{cfg}, n))
	if err != nil {
		return err
	}
	mode := "one session"
	if cfg.Coalesce {
		mode = "one session, coalesced into one engine run"
	}
	fmt.Printf("\n%d concurrent queries served from %s (cache now %d labels):\n",
		n, mode, sess.CachedLabels())
	for i, r := range results {
		fmt.Printf("  query %-3d confidence %.4f, cleaned %d, %.0f sim-ms\n",
			i, r.Confidence, r.EngineStats.Cleaned, r.Clock.TotalMS())
	}
	printServingStats(results)
	fmt.Printf("\nfirst answer (all %d are bit-identical):\n", n)
	printResult(os.Stdout, results[0], src.FPS(), "")
	return nil
}

// loadOrBuildIndex serves the session paths: a saved index is loaded
// when path is non-empty, otherwise Phase 1 runs once up front.
func loadOrBuildIndex(src video.Source, udf vision.UDF, cfg everest.Config, path string) (*everest.Index, error) {
	if path != "" {
		ix, err := everest.LoadFile(path)
		if err != nil {
			return nil, err
		}
		fmt.Printf("(serving from index %s; ingest cost %.0f sim-ms amortized)\n", path, ix.IngestMS())
		return ix, nil
	}
	ix, err := everest.BuildIndex(src, udf, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("(phase 1 ingested once: %.0f sim-ms, %d retained frames)\n", ix.IngestMS(), ix.Info().Retained)
	return ix, nil
}

// runDurable serves one query from a shared session whose label cache
// is crash-safe in dir: labels recovered from a previous process are
// reported and reused (they enter the query oracle-free), and the
// labels this query confirms are logged before it returns — a restart
// with the same -durable-dir picks them up.
func runDurable(src video.Source, udf vision.UDF, cfg everest.Config, path, dir string) (*everest.Result, error) {
	ix, err := loadOrBuildIndex(src, udf, cfg, path)
	if err != nil {
		return nil, err
	}
	sess, err := everest.NewSharedSession(ix, src, udf)
	if err != nil {
		return nil, err
	}
	if err := sess.EnableDurable(dir); err != nil {
		return nil, err
	}
	fmt.Printf("(durable label cache in %s: recovered %d labels at version %d)\n",
		dir, sess.CachedLabels(), sess.CacheVersion())
	res, err := sess.Query(cfg)
	if err != nil {
		return nil, err
	}
	if derr := sess.DurableErr(); derr != nil {
		fmt.Printf("WARNING: durable log failed mid-run; serving continued from RAM: %v\n", derr)
	}
	fmt.Printf("(cache now %d labels at version %d; the WAL in %s survives restarts)\n",
		sess.CachedLabels(), sess.CacheVersion(), dir)
	return res, nil
}

// runShared serves the query from n distinct shared sessions launched
// concurrently — the "n users, one video" scenario. Sessions reuse each
// other's published labels through the process-wide cache; how much is
// reused depends on in-flight overlap: free-running sessions that start
// together all pay the oracle (the cache shares *completed* work), while
// -admit caps how many are in flight, so with -admit 1 the first session
// pays and the rest serve oracle-free — and -coalesce batches in-flight
// queries into one engine run on the pair's scheduler, so even
// simultaneous starters share labels and the group pays roughly one
// query's bill. Per-session numbers depend on arrival order; each
// individual answer is still the deterministic function of the cache
// version (or coalesced group position) it got.
func runShared(src video.Source, udf vision.UDF, cfg everest.Config, ix *everest.Index, n int) error {
	results := make([]*everest.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	var last *everest.Session
	for i := 0; i < n; i++ {
		sess, err := everest.NewSharedSession(ix, src, udf)
		if err != nil {
			return err
		}
		last = sess
		wg.Add(1)
		go func(i int, sess *everest.Session) {
			defer wg.Done()
			results[i], errs[i] = sess.Query(cfg)
		}(i, sess)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	totalCleaned := 0
	paid := 0
	lone := 0 // what one cold-cache query pays: the biggest single bill
	for _, r := range results {
		totalCleaned += r.EngineStats.Cleaned
		if r.EngineStats.Cleaned > 0 {
			paid++
		}
		if r.EngineStats.Cleaned > lone {
			lone = r.EngineStats.Cleaned
		}
	}
	admitNote := "no admission cap"
	if cfg.AdmissionLimit > 0 {
		admitNote = fmt.Sprintf("admission cap %d", cfg.AdmissionLimit)
	}
	if cfg.Coalesce {
		admitNote += ", coalescing scheduler"
	}
	fmt.Printf("\n%d concurrent user sessions over one process-wide cache (%s; cache now %d labels, version %d):\n",
		n, admitNote, last.CachedLabels(), last.CacheVersion())
	for i, r := range results {
		fmt.Printf("  session %-3d confidence %.4f, cleaned %d, %.0f sim-ms\n",
			i, r.Confidence, r.EngineStats.Cleaned, r.Clock.TotalMS())
	}
	fmt.Printf("\n%d of %d sessions paid the oracle; %d confirmations total (a lone cold-cache query pays %d)\n",
		paid, n, totalCleaned, lone)
	printServingStats(results)
	fmt.Printf("\nfirst answer:\n")
	printResult(os.Stdout, results[0], src.FPS(), "")
	return nil
}

func printResult(w io.Writer, res *everest.Result, fps int, query string) {
	unit := "frame"
	if res.IsWindow {
		unit = "window"
	}
	if query != "" {
		fmt.Fprintf(w, "query: %s\n", query)
	}
	if res.Degraded != nil {
		fmt.Fprintf(w, "\nDEGRADED result (%s; %d of %d entries unconfirmed proxy estimates; %.0f sim-ms spent):\n",
			res.Degraded.Reason, len(res.Degraded.Unconfirmed), len(res.IDs), res.Degraded.SpentMS)
	}
	fmt.Fprintf(w, "\nresult (confidence %.4f):\n", res.Confidence)
	for i, id := range res.IDs {
		sec := float64(id) / float64(fps)
		if res.IsWindow {
			sec = float64(id*res.WindowStride) / float64(fps)
		}
		fmt.Fprintf(w, "  #%-3d %s %-8d t=%8.1fs  score %.2f\n", i+1, unit, id, sec, res.Scores[i])
	}
	fmt.Fprintf(w, "\nphase 1: %d+%d oracle-labelled samples, %d/%d frames retained, CMDN g=%d h=%d (holdout NLL %.3f)\n",
		res.Phase1.TrainSamples, res.Phase1.HoldoutSamples,
		res.Phase1.Retained, res.Phase1.TotalFrames,
		res.Phase1.Hyper.G, res.Phase1.Hyper.H, res.Phase1.HoldoutNLL)
	fmt.Fprintf(w, "phase 2: %d iterations, %d tuples confirmed by the oracle\n",
		res.EngineStats.Iterations, res.EngineStats.Cleaned)
	if res.Retries > 0 {
		fmt.Fprintf(w, "fault layer: %d transient oracle failures retried (+%.0f sim-ms simulated backoff)\n",
			res.Retries, res.RetryBackoffMS)
	}
	fmt.Fprintf(w, "\nsimulated cost:\n%s", res.Clock)
}

// runScript executes (or, with explainOnly, describes) an EQL script on
// one shared script session: statements over the same (dataset, frames,
// UDF, seed) share one ingestion and one label cache under a single
// serving budget, bit-identical to running them one at a time in order.
func runScript(w io.Writer, src string, explainOnly bool) error {
	if explainOnly {
		out, err := eql.ExplainScript(src)
		fmt.Fprint(w, out)
		return err
	}
	return repl.New(w).ExecLine(src)
}

// runQuery serves -query. A lone statement with one unit and no live
// stream has a standalone form — analyzed with its own ingest, explained,
// or run without a session — chosen by its kind; scripts, STREAM and
// multi-unit statements run as one coordinated plan graph on a shared
// script session.
func runQuery(w io.Writer, query string, explainOnly bool) error {
	sc, err := eql.ParseScript(query)
	if err != nil {
		return err
	}
	if len(sc.Statements) == 1 {
		q := sc.Statements[0]
		oneUnit := !q.Stream && len(q.Sources) == 1 && len(q.Predicates) == 1
		switch kind := q.Kind(); kind {
		case eql.KindAnalyze:
			rep, err := eql.Analyze(query, eql.AnalyzeOptions{})
			if err == nil {
				fmt.Fprint(w, rep.String())
			}
			return err
		case eql.KindExplain, eql.KindQuery, eql.KindScaleOut:
			if !oneUnit {
				break
			}
			if kind == eql.KindExplain || explainOnly {
				out, err := eql.Explain(query)
				fmt.Fprint(w, out)
				return err
			}
			res, u, err := eql.Execute(query)
			if err == nil {
				printResult(w, res, u.Source.FPS(), query)
			}
			return err
		}
	}
	return runScript(w, query, explainOnly)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "everest:", err)
	os.Exit(1)
}
