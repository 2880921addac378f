package everest

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

// TestRunProcsBitIdentical is the engine-level determinism guarantee: the
// multi-core execution engine must produce byte-identical results to the
// serial path for every worker count — same Top-K IDs, scores,
// confidence, Phase 2 counters and simulated charges. The DisableDiff
// input is the one where InferMixtures decodes and predicts every
// retained frame on the workers.
func TestRunProcsBitIdentical(t *testing.T) {
	udf := vision.CountUDF{Class: video.ClassCar}
	// 8 forces multi-worker scheduling even on small CI machines;
	// NumCPU covers the documented default.
	workerCounts := []int{8, runtime.NumCPU()}
	for _, in := range []struct {
		seed        uint64
		disableDiff bool
	}{{7, false}, {29, false}, {101, false}, {7, true}} {
		seed := in.seed
		cfg := smallCfg(5)
		cfg.Seed = seed
		cfg.DisableDiff = in.disableDiff
		cfg.Procs = 1
		src := testSource(t, 6000, seed)
		serial, err := Run(src, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range workerCounts {
			pcfg := cfg
			pcfg.Procs = procs
			par, err := Run(testSource(t, 6000, seed), udf, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if par.Confidence != serial.Confidence {
				t.Fatalf("seed %d DisableDiff %v procs %d: confidence %v != serial %v", seed, in.disableDiff, procs, par.Confidence, serial.Confidence)
			}
			if par.EngineStats != serial.EngineStats {
				t.Fatalf("seed %d DisableDiff %v procs %d: stats %+v != serial %+v", seed, in.disableDiff, procs, par.EngineStats, serial.EngineStats)
			}
			if par.Phase1 != serial.Phase1 {
				t.Fatalf("seed %d DisableDiff %v procs %d: phase1 %+v != serial %+v", seed, in.disableDiff, procs, par.Phase1, serial.Phase1)
			}
			if par.Clock.TotalMS() != serial.Clock.TotalMS() {
				t.Fatalf("seed %d DisableDiff %v procs %d: simulated cost %v != serial %v", seed, in.disableDiff, procs, par.Clock.TotalMS(), serial.Clock.TotalMS())
			}
			for i := range serial.IDs {
				if par.IDs[i] != serial.IDs[i] || par.Scores[i] != serial.Scores[i] {
					t.Fatalf("seed %d DisableDiff %v procs %d: result %d (%d, %v) != serial (%d, %v)",
						seed, in.disableDiff, procs, i, par.IDs[i], par.Scores[i], serial.IDs[i], serial.Scores[i])
				}
			}
		}
	}
}

// TestWindowQueryProcsBitIdentical covers a window query end to end:
// Phase 1 fans out over the workers, and the window relation, built on
// the calling goroutine, must come out of its output bit-identical.
func TestWindowQueryProcsBitIdentical(t *testing.T) {
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	cfg.Window = 30
	cfg.Procs = 1
	serial, err := Run(testSource(t, 6000, 43), udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = 8
	par, err := Run(testSource(t, 6000, 43), udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Confidence != serial.Confidence || par.Clock.TotalMS() != serial.Clock.TotalMS() {
		t.Fatalf("window query diverged: conf %v/%v cost %v/%v",
			par.Confidence, serial.Confidence, par.Clock.TotalMS(), serial.Clock.TotalMS())
	}
	for i := range serial.IDs {
		if par.IDs[i] != serial.IDs[i] || par.Scores[i] != serial.Scores[i] {
			t.Fatalf("window %d: (%d, %v) != serial (%d, %v)",
				i, par.IDs[i], par.Scores[i], serial.IDs[i], serial.Scores[i])
		}
	}
}

// TestBuildIndexProcsBitIdentical covers the ingestion path: the index
// built on all cores must serve identical queries to one built serially.
func TestBuildIndexProcsBitIdentical(t *testing.T) {
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	cfg.Procs = 1
	src := testSource(t, 6000, 47)
	serialIx, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = 8
	parIx, err := BuildIndex(testSource(t, 6000, 47), udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parIx.IngestMS() != serialIx.IngestMS() {
		t.Fatalf("ingest cost %v != serial %v", parIx.IngestMS(), serialIx.IngestMS())
	}
	qcfg := smallCfg(5)
	serialRes, err := serialIx.Query(src, udf, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := parIx.Query(src, udf, qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if parRes.Confidence != serialRes.Confidence {
		t.Fatalf("query confidence %v != serial %v", parRes.Confidence, serialRes.Confidence)
	}
	for i := range serialRes.IDs {
		if parRes.IDs[i] != serialRes.IDs[i] || parRes.Scores[i] != serialRes.Scores[i] {
			t.Fatalf("query result %d diverged", i)
		}
	}
}

// TestExtendProcsBitIdentical covers the append path: the same index
// extended at Procs 1 and at Procs 8 must save to identical bytes and
// answer identically.
func TestExtendProcsBitIdentical(t *testing.T) {
	udf := vision.CountUDF{Class: video.ClassCar}
	day1, full := growableSources(t, 4000, 8000, 113)
	base, err := BuildIndex(day1, udf, smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	var saved [][]byte
	var answers []goldenResult
	for _, procs := range []int{1, 8} {
		ix := &Index{art: base.art.Clone(), info: base.info, ingestMS: base.ingestMS}
		cfg := smallCfg(5)
		cfg.Procs = procs
		if _, err := ix.Extend(full, udf, cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		res, err := ix.Query(full, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		saved = append(saved, buf.Bytes())
		answers = append(answers, goldenOf(res))
	}
	if !bytes.Equal(saved[0], saved[1]) {
		t.Fatal("index extended at Procs 8 saves to different bytes than at Procs 1")
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Fatalf("extended index answers differ across Procs:\n 1: %+v\n 8: %+v", answers[0], answers[1])
	}
}

// TestLiveProcsBitIdentical covers live ingestion with the warm refresh
// always taken (DriftNLL +Inf): the deltas, the ingest charges and the
// counters at Procs 8 must equal those at Procs 1.
func TestLiveProcsBitIdentical(t *testing.T) {
	udf := vision.CountUDF{Class: video.ClassCar}
	type run struct {
		deltas   []LiveDelta
		ingestMS float64
		stats    LiveStats
	}
	var runs []run
	for _, procs := range []int{1, 8} {
		src := testSource(t, 6000, 59)
		cfg := smallCfg(3)
		cfg.Procs = procs
		ls, err := OpenLive(src, udf, cfg, LiveConfig{SegmentFrames: 1000, Warm: true, DriftNLL: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		for sent := 0; sent < src.NumFrames(); sent += 500 {
			if err := ls.Append(500); err != nil {
				t.Fatal(err)
			}
		}
		if err := ls.Seal(); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{ls.Deltas(), ls.IngestMS(), ls.Stats()})
	}
	if runs[0].stats.WarmRefreshes == 0 {
		t.Fatalf("no warm refresh ran: %+v", runs[0].stats)
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("live stream diverged across Procs:\n 1: %+v\n 8: %+v", runs[0], runs[1])
	}
}

// TestDroppedIndexAndStreamHoldNoGoroutines: an index extended at
// Procs 4, and a live stream at Procs 4 that closed a segment, hold no
// goroutine once their calls return, so dropping them without Close
// leaks nothing.
func TestDroppedIndexAndStreamHoldNoGoroutines(t *testing.T) {
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := smallCfg(5)
	cfg.Procs = 4
	// dropped runs use, which drops what it built, and requires the
	// goroutine count to settle back to where it was before.
	dropped := func(what string, use func()) {
		baseline := runtime.NumGoroutine()
		use()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Errorf("dropped %s left %d goroutines behind", what, runtime.NumGoroutine()-baseline)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	dropped("extended index", func() {
		day1, full := growableSources(t, 3000, 6000, 131)
		ix, err := BuildIndex(day1, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Extend(full, udf, cfg); err != nil {
			t.Fatal(err)
		}
	})
	dropped("live stream", func() {
		ls, err := OpenLive(testSource(t, 2000, 61), udf, cfg, LiveConfig{SegmentFrames: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := ls.Append(1000); err != nil {
			t.Fatal(err)
		}
		if ls.Stats().Segments != 1 {
			t.Fatalf("closed %d segments, want 1", ls.Stats().Segments)
		}
	})
}
