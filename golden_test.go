package everest

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
	"github.com/everest-project/everest/internal/visualroad"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the testdata/golden_*.json snapshots from the current engine output")

const goldenPath = "testdata/golden_determinism.json"

// goldenProcs are the worker counts every golden scenario runs at; all
// must produce the one committed answer.
var goldenProcs = []int{1, 2, 8}

// goldenResult is the serializable projection of a Result: everything a
// query answers with, including the per-phase simulated charges. JSON
// round-trips float64 exactly (shortest-repr encoding), so equality on
// the decoded struct is bit equality.
type goldenResult struct {
	IDs        []int              `json:"ids"`
	Scores     []float64          `json:"scores"`
	Confidence float64            `json:"confidence"`
	Bound      string             `json:"bound"`
	Stats      map[string]int     `json:"stats"`
	Phase1     map[string]float64 `json:"phase1"`
	PhaseMS    map[string]float64 `json:"phase_ms"`
	TotalMS    float64            `json:"total_ms"`
}

func goldenOf(res *Result) goldenResult {
	g := goldenResult{
		IDs:        res.IDs,
		Scores:     res.Scores,
		Confidence: res.Confidence,
		Bound:      res.Bound.String(),
		Stats: map[string]int{
			"iterations":        res.EngineStats.Iterations,
			"cleaned":           res.EngineStats.Cleaned,
			"examined":          res.EngineStats.Examined,
			"pruned":            res.EngineStats.Pruned,
			"resorts":           res.EngineStats.Resorts,
			"bootstrap_cleaned": res.EngineStats.BootstrapCleaned,
			"oracle_calls":      res.EngineStats.OracleCalls,
		},
		Phase1: map[string]float64{
			"total_frames":    float64(res.Phase1.TotalFrames),
			"train_samples":   float64(res.Phase1.TrainSamples),
			"holdout_samples": float64(res.Phase1.HoldoutSamples),
			"retained":        float64(res.Phase1.Retained),
			"tuples":          float64(res.Phase1.Tuples),
			"hyper_g":         float64(res.Phase1.Hyper.G),
			"hyper_h":         float64(res.Phase1.Hyper.H),
			"holdout_nll":     res.Phase1.HoldoutNLL,
		},
		PhaseMS: map[string]float64{},
		TotalMS: res.Clock.TotalMS(),
	}
	for _, ps := range res.Clock.Breakdown() {
		g.PhaseMS[string(ps.Phase)] = ps.MS
	}
	return g
}

// goldenScenario is one committed end-to-end configuration, mirroring the
// shape (not the scale) of the paper experiments it is named after.
type goldenScenario struct {
	name string
	src  video.Source
	udf  vision.UDF
	cfg  Config
}

// goldenCfg keeps every scenario in the seconds range: one grid point,
// a higher sampling fraction, a fixed seed.
func goldenCfg(k int) Config {
	return Config{
		K:          k,
		Threshold:  0.9,
		Seed:       21,
		SampleFrac: 0.05,
		Proxy:      cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 30}}, Epochs: 30},
	}
}

func goldenScenarios(t *testing.T) []goldenScenario {
	t.Helper()
	build := func(name string, frames int) video.Source {
		spec, err := video.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		src, err := spec.Build(frames)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	road, err := visualroad.Generate(50, 3000, 0x51a1)
	if err != nil {
		t.Fatal(err)
	}
	fig7 := goldenCfg(5)
	fig7.Window = 30
	return []goldenScenario{
		// fig4 shape: the default Top-K frame query on a Table 7 counting
		// dataset.
		{"fig4-archie-topk", build("Archie", 3000), vision.CountUDF{Class: video.ClassCar}, goldenCfg(10)},
		// fig7 shape: a Top-K tumbling-window query.
		{"fig7-archie-window30", build("Archie", 3000), vision.CountUDF{Class: video.ClassCar}, fig7},
		// fig8 shape: Visual-Road density traffic.
		{"fig8-visualroad-50cars", road, vision.CountUDF{Class: road.TargetClass()}, goldenCfg(5)},
	}
}

// TestGoldenDeterminism is the end-to-end determinism lock: for each
// committed scenario, Run at Procs ∈ {1, 2, 8} must produce one answer —
// IDs, scores, confidence, Phase 2 counters, Phase 1 statistics and every
// simulated charge — and that answer must match the committed snapshot in
// testdata byte for byte. A diff here means the engine's output changed:
// either a bug, or an intentional change that must be re-committed with
// -update-golden and called out in the PR.
func TestGoldenDeterminism(t *testing.T) {
	got := make(map[string]goldenResult)
	for _, sc := range goldenScenarios(t) {
		var first *Result
		for _, procs := range goldenProcs {
			cfg := sc.cfg
			cfg.Procs = procs
			res, err := Run(sc.src, sc.udf, cfg)
			if err != nil {
				t.Fatalf("%s procs=%d: %v", sc.name, procs, err)
			}
			if first == nil {
				first = res
				got[sc.name] = goldenOf(res)
				continue
			}
			if !reflect.DeepEqual(goldenOf(res), goldenOf(first)) {
				t.Fatalf("%s: procs=%d diverged from procs=%d", sc.name, procs, goldenProcs[0])
			}
		}
	}

	checkGolden(t, goldenPath, got)
}

// checkGolden compares got, scenario by scenario, with the committed
// snapshot at path — or rewrites the snapshot under -update-golden.
func checkGolden[T any](t *testing.T, path string, got map[string]T) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d scenarios", path, len(got))
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden snapshot (run with -update-golden to create): %v", err)
	}
	var want map[string]T
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden snapshot has %d scenarios, engine produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Fatalf("scenario %s missing from golden snapshot", name)
		}
		if !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Fatalf("scenario %s diverged from golden snapshot\ngot:\n%s\nwant:\n%s", name, gj, wj)
		}
	}
}

// TestGoldenOracleMux locks the oracle multiplexer against the
// committed golden: the fig4 scenario re-run with UseMux — every
// Phase 2 confirmation batch routed through the process-wide dispatch
// queue — must reproduce the committed mux-off snapshot byte for byte
// at every worker count: IDs, scores, confidence, counters and every
// simulated per-plan charge. Consolidation is device-side accounting
// only; the committed golden is the proof.
func TestGoldenOracleMux(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden snapshot (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	const scenario = "fig4-archie-topk"
	w, ok := want[scenario]
	if !ok {
		t.Fatalf("scenario %s missing from golden snapshot", scenario)
	}
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(3000)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	for _, procs := range goldenProcs {
		cfg := goldenCfg(10)
		cfg.Procs = procs
		cfg.UseMux = true
		res, err := Run(src, udf, cfg)
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if g := goldenOf(res); !reflect.DeepEqual(g, w) {
			gj, _ := json.MarshalIndent(g, "", "  ")
			wj, _ := json.MarshalIndent(w, "", "  ")
			t.Fatalf("procs=%d: mux-on run diverged from the committed mux-off golden\ngot:\n%s\nwant:\n%s",
				procs, gj, wj)
		}
	}
}

// TestGoldenCoalescedSession locks the coalescing scheduler's
// determinism contract end to end: a coalesced batch — one engine run
// sharing a single label overlay — must return, for every query and at
// every worker count, bit-identically what serial Session.Query calls
// in the same submission order return (each serial query seeing its
// predecessors' published labels). It also locks the point of
// coalescing: the group spends strictly fewer oracle confirmations
// than the same queries run independently from cold caches.
func TestGoldenCoalescedSession(t *testing.T) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(3000)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	mkCfgs := func() []Config {
		big := goldenCfg(10)
		strict := goldenCfg(5)
		strict.Threshold = 0.99
		win := goldenCfg(5)
		win.Window = 30
		return []Config{big, strict, win}
	}
	ix, err := BuildIndex(src, udf, goldenCfg(10))
	if err != nil {
		t.Fatal(err)
	}

	// Serial submission-order reference: a fresh session, one Query at a
	// time, each publishing before the next snapshots.
	serialSess, err := NewSession(ix, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := mkCfgs()
	serial := make([]goldenResult, len(cfgs))
	independent := 0 // oracle bill of the same queries from cold caches
	for i, cfg := range cfgs {
		res, err := serialSess.Query(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = goldenOf(res)
		alone, err := ix.Query(src, udf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		independent += alone.EngineStats.Cleaned
	}

	for _, procs := range goldenProcs {
		sess, err := NewSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		cfgs := mkCfgs()
		coalesced := 0
		for i := range cfgs {
			cfgs[i].Procs = procs
			cfgs[i].Coalesce = true
		}
		results, err := sess.QueryBatch(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i, res := range results {
			g := goldenOf(res)
			if !reflect.DeepEqual(g, serial[i]) {
				gj, _ := json.MarshalIndent(g, "", "  ")
				wj, _ := json.MarshalIndent(serial[i], "", "  ")
				t.Fatalf("procs=%d coalesced query %d diverged from serial submission order\ngot:\n%s\nwant:\n%s",
					procs, i, gj, wj)
			}
			coalesced += res.EngineStats.Cleaned
		}
		if coalesced >= independent {
			t.Fatalf("procs=%d: coalesced batch cleaned %d frames, independent runs clean %d — coalescing saved nothing",
				procs, coalesced, independent)
		}
	}
}

// TestGoldenIndexSaveLoadRoundTrip locks index persistence through the
// unified engine path: an index restored by LoadIndex must answer every
// query — frame and window, direct and session-coalesced — bit-identically
// to the in-memory index it was saved from, at every worker count.
func TestGoldenIndexSaveLoadRoundTrip(t *testing.T) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(3000)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := goldenCfg(10)
	wcfg := goldenCfg(5)
	wcfg.Window = 30
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dataset() != ix.Dataset() || loaded.UDFName() != ix.UDFName() || loaded.IngestMS() != ix.IngestMS() {
		t.Fatal("round-trip lost index metadata")
	}
	for _, qcfg := range []Config{cfg, wcfg} {
		ref, err := ix.Query(src, udf, qcfg)
		if err != nil {
			t.Fatal(err)
		}
		refGolden := goldenOf(ref)
		for _, procs := range goldenProcs {
			pcfg := qcfg
			pcfg.Procs = procs
			res, err := loaded.Query(src, udf, pcfg)
			if err != nil {
				t.Fatal(err)
			}
			if g := goldenOf(res); !reflect.DeepEqual(g, refGolden) {
				gj, _ := json.MarshalIndent(g, "", "  ")
				wj, _ := json.MarshalIndent(refGolden, "", "  ")
				t.Fatalf("window=%d procs=%d: loaded index diverged from in-memory\ngot:\n%s\nwant:\n%s",
					qcfg.Window, procs, gj, wj)
			}
		}
	}
	// A coalesced session over the loaded index behaves like one over the
	// original: first caller pays, repeats ride for free.
	sess, err := NewSession(loaded, src, udf)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.Coalesce = true
	results, err := sess.QueryBatch(slices.Repeat([]Config{ccfg}, 3))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if !reflect.DeepEqual(res.IDs, ref.IDs) || !reflect.DeepEqual(res.Scores, ref.Scores) {
			t.Fatalf("coalesced caller %d over the loaded index changed the answer", i)
		}
	}
	if results[1].EngineStats.Cleaned != 0 || results[2].EngineStats.Cleaned != 0 {
		t.Fatalf("coalesced repeats paid the oracle: %d, %d cleaned",
			results[1].EngineStats.Cleaned, results[2].EngineStats.Cleaned)
	}
}

// TestGoldenConcurrentSession extends the determinism lock to the
// concurrent-serving path: N concurrent Session.Query callers launched
// over one cache snapshot (QueryBatch) must each return bit-identically
// what a lone indexed query returns, at every worker count.
func TestGoldenConcurrentSession(t *testing.T) {
	spec, err := video.DatasetByName("Archie")
	if err != nil {
		t.Fatal(err)
	}
	src, err := spec.Build(3000)
	if err != nil {
		t.Fatal(err)
	}
	udf := vision.CountUDF{Class: video.ClassCar}
	cfg := goldenCfg(10)
	ix, err := BuildIndex(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := ix.Query(src, udf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refGolden := goldenOf(ref)
	for _, procs := range goldenProcs {
		qcfg := cfg
		qcfg.Procs = procs
		sess, err := NewSession(ix, src, udf)
		if err != nil {
			t.Fatal(err)
		}
		results, err := sess.QueryBatch(slices.Repeat([]Config{qcfg}, 4))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range results {
			g := goldenOf(r)
			if !reflect.DeepEqual(g, refGolden) {
				gj, _ := json.MarshalIndent(g, "", "  ")
				wj, _ := json.MarshalIndent(refGolden, "", "  ")
				t.Fatalf("procs=%d caller %d diverged from the lone indexed query\ngot:\n%s\nwant:\n%s",
					procs, i, gj, wj)
			}
		}
	}
}
