//go:build guarantee

package metrics_test

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/cmdn"
	"github.com/everest-project/everest/internal/metrics"
	"github.com/everest-project/everest/internal/video"
	"github.com/everest-project/everest/internal/vision"
)

const (
	guaranteeVideos = 40
	guaranteeAlpha  = 0.01
	firstN          = 20 // the prefix the sweep was first recorded at
)

// guaranteeBase is oneshot_run's query: Threshold 0.9 over the 4-point
// CMDN grid at Procs 2; each cell sets K and, for windows, the shape.
var guaranteeBase = everest.Config{
	Threshold: 0.9,
	Proxy:     cmdn.Config{Grid: []cmdn.Hyper{{G: 5, H: 20}, {G: 5, H: 30}, {G: 8, H: 30}, {G: 12, H: 40}}},
	Seed:      1,
	Procs:     2,
}

// frameCell is one of TestGuarantee's cells: K over videos of the
// given length, seeded apart from the other cells'.
type frameCell struct {
	name      string
	frames, k int
	seed      uint64 // added to the catalog seed, plus the video's index
}

var frameCells = []frameCell{
	{"base", 4000, 10, 1000},
	{"tiny-n", 640, 10, 2000},
	{"ties", 4000, 50, 3000},
}

// tally runs the cell's query on guaranteeVideos fresh videos of the
// dataset and counts the answers.
func (cell frameCell) tally(t *testing.T, spec video.DatasetSpec) tally {
	t.Helper()
	cfg := guaranteeBase
	cfg.K = cell.k
	udf := vision.CountUDF{Class: spec.Config.Class}
	var row tally
	for i := 0; i < guaranteeVideos; i++ {
		vc := spec.Config
		vc.Name = fmt.Sprintf("g-%s-%d", spec.Name, i)
		if cell.name != "base" {
			vc.Name = fmt.Sprintf("g-%s-%s-%d", cell.name, spec.Name, i)
		}
		vc.Seed += cell.seed + uint64(i)
		vc.Frames = cell.frames
		src, err := video.NewSynthetic(vc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := everest.Run(src, udf, cfg)
		if err != nil {
			t.Fatalf("%s: %v", vc.Name, err)
		}
		row.add(i, res, metrics.FrameTruth(src, udf), cfg.K)
	}
	return row
}

// TestGuarantee measures the paper's contract (§3.3) end to end, with
// the real proxy: Pr(returned Top-K = exact Top-K) ≥ Threshold. Each
// cell of the grid is one choke point; per cell and counting dataset it
// runs oneshot_run's query on guaranteeVideos fresh videos and counts
// the exact answers:
//
//   - base: K 10 on 4,000-frame videos;
//   - tiny-n: K 10 on 640-frame videos, where Phase 1 falls back to
//     labelling half the video (phase1.SampleCounts);
//   - ties: K 50 on 4,000-frame videos, where many frames share the
//     K-th quantized level.
//
// TestGuaranteeWindows adds the window cells. Each cell seeds its
// videos apart from the others'. A row fails when a one-sided binomial
// test rejects "exact rate ≥ Threshold" at guaranteeAlpha, or when the
// mean reported confidence lies above the exact rate's one-sided
// Clopper-Pearson upper bound at the same level (the answers claim more
// than they deliver). Run it with `make guarantee`; it is not part of
// the default test run.
func TestGuarantee(t *testing.T) {
	table := newTable()
	for _, cell := range frameCells {
		for _, spec := range video.CountingDatasets() {
			cell.tally(t, spec).judge(t, table, cell.name, cell.frames, cell.k, spec.Name)
		}
	}
	logTable(t, table)
}

// windowCell is one of TestGuaranteeWindows' cells: K windowK over
// windowSize-frame windows at the stride, confirmed from the sampled
// fraction of each window's frames.
type windowCell struct {
	name       string
	stride     int
	sampleFrac float64 // zero: the default 0.1
}

const windowFrames, windowSize, windowK = 4000, 30, 5

var windowCells = []windowCell{{"windows", windowSize, 0}, {"sliding", windowSize / 2, 0}, {"1-frame", windowSize, 0.02}}

// windowTallies indexes guaranteeVideos fresh videos of the dataset
// once each, asks every window cell's query of each index, and counts
// the answers: one tally per cell, in windowCells order.
func windowTallies(t *testing.T, spec video.DatasetSpec) []tally {
	t.Helper()
	cfg := guaranteeBase
	cfg.K, cfg.Window = windowK, windowSize
	udf := vision.CountUDF{Class: spec.Config.Class}
	rows := make([]tally, len(windowCells))
	for i := 0; i < guaranteeVideos; i++ {
		vc := spec.Config
		vc.Name = fmt.Sprintf("g-windows-%s-%d", spec.Name, i)
		vc.Seed += 4000 + uint64(i)
		vc.Frames = windowFrames
		src, err := video.NewSynthetic(vc)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := everest.BuildIndex(src, udf, cfg)
		if err != nil {
			t.Fatalf("%s: %v", vc.Name, err)
		}
		for c, cell := range windowCells {
			qcfg := cfg
			qcfg.Stride, qcfg.WindowSampleFrac = cell.stride, cell.sampleFrac
			res, err := ix.Query(src, udf, qcfg)
			if err != nil {
				t.Fatalf("%s, %s: %v", vc.Name, cell.name, err)
			}
			rows[c].add(i, res, metrics.SlidingWindowTruth(src, udf, windowSize, cell.stride), cfg.K)
		}
	}
	return rows
}

// TestGuaranteeWindows is the grid's window cells, on 40 fresh
// 4,000-frame videos per counting dataset (catalog Seed + 4000 + i),
// each indexed once and asked three queries: K 5 over 30-frame tumbling
// windows (windows), K 5 over the same windows every 15 frames
// (sliding: they overlap, so the union bound), and the tumbling windows
// again at WindowSampleFrac 0.02, which confirms a window from
// ceil(0.6) = 1 sampled frame (1-frame). An answer is exact against
// metrics.SlidingWindowTruth, the windows' mean true scores; the rows
// are judged as TestGuarantee's.
func TestGuaranteeWindows(t *testing.T) {
	specs := video.CountingDatasets()
	rows := make([][]tally, len(specs))
	for d, spec := range specs {
		rows[d] = windowTallies(t, spec)
	}
	table := newTable()
	for c, cell := range windowCells {
		for d, spec := range specs {
			rows[d][c].judge(t, table, cell.name, windowFrames, windowK, spec.Name)
		}
	}
	logTable(t, table)
}

// TestGuaranteeHolds is the ratchet over the grid: it runs exactly the
// rows named in testdata/guarantee_holds.txt (one "cell dataset" pair a
// line; '#' starts a comment), each on the same videos and judged as
// in TestGuarantee or TestGuaranteeWindows, and fails if any listed row
// fails either check. A row joins the list when a change makes it
// pass; it leaves only with a recorded reason. Run it with `make
// guarantee-holds`.
func TestGuaranteeHolds(t *testing.T) {
	data, err := os.ReadFile("testdata/guarantee_holds.txt")
	if err != nil {
		t.Fatal(err)
	}
	specs := make(map[string]video.DatasetSpec)
	for _, spec := range video.CountingDatasets() {
		specs[spec.Name] = spec
	}
	windows := make(map[string][]tally) // per dataset, computed once
	seen := make(map[string]bool)
	table := newTable()
	for n, line := range strings.Split(string(data), "\n") {
		line, _, _ = strings.Cut(line, "#")
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 || seen[line] {
			t.Fatalf("guarantee_holds.txt:%d: %q is not a new \"cell dataset\" row", n+1, line)
		}
		seen[line] = true
		cellName, dataset := fields[0], fields[1]
		spec, ok := specs[dataset]
		if !ok {
			t.Fatalf("guarantee_holds.txt:%d: %q is not a counting dataset", n+1, dataset)
		}
		if c := slices.IndexFunc(frameCells, func(c frameCell) bool { return c.name == cellName }); c >= 0 {
			cell := frameCells[c]
			cell.tally(t, spec).judge(t, table, cell.name, cell.frames, cell.k, dataset)
		} else if c := slices.IndexFunc(windowCells, func(c windowCell) bool { return c.name == cellName }); c >= 0 {
			if windows[dataset] == nil {
				windows[dataset] = windowTallies(t, spec)
			}
			windows[dataset][c].judge(t, table, cellName, windowFrames, windowK, dataset)
		} else {
			t.Fatalf("guarantee_holds.txt:%d: no cell %q", n+1, cellName)
		}
	}
	if len(seen) == 0 {
		t.Fatal("guarantee_holds.txt lists no row")
	}
	logTable(t, table)
}

// tally counts one row's answers: exact ones, those among the first
// firstN videos, and the reported confidences.
type tally struct {
	exact, exactFirst int
	confSum           float64
}

// add counts the answer on video i against its ground truth.
func (r *tally) add(i int, res *everest.Result, truth []metrics.Ranked, k int) {
	r.confSum += res.Confidence
	if exactTopK(res.IDs, truth, k) {
		r.exact++
		if i < firstN {
			r.exactFirst++
		}
	}
}

// judge tests the row, fails t if it fails, and writes it to table.
func (r tally) judge(t *testing.T, table *strings.Builder, cell string, frames, k int, dataset string) {
	t.Helper()
	n := guaranteeVideos
	thres := guaranteeBase.Threshold
	rate := float64(r.exact) / float64(n)
	meanConf := r.confSum / float64(n)
	pValue := binomCDF(r.exact, n, thres)
	bound := upperBound(r.exact, n, guaranteeAlpha)
	var why []string
	if pValue < guaranteeAlpha {
		why = append(why, fmt.Sprintf("exact rate below %.2f", thres))
	}
	if meanConf > bound {
		why = append(why, "overconfident")
	}
	verdict := "ok"
	if len(why) > 0 {
		verdict = "FAIL: " + strings.Join(why, ", ")
		t.Errorf("%s/%s: %d/%d exact (p = %.3g), mean confidence %.3f against bound %.3f",
			cell, dataset, r.exact, n, pValue, meanConf, bound)
	}
	fmt.Fprintf(table, "%-7s %5d %3d %-16s %6d/%-2d %6d/%-2d %6.3f %9.3f %9.3g %10.3f  %s\n",
		cell, frames, k, dataset, r.exactFirst, firstN, r.exact, n, rate, meanConf, pValue, bound, verdict)
}

// newTable starts a table with its header.
func newTable() *strings.Builder {
	var table strings.Builder
	fmt.Fprintf(&table, "%-7s %5s %3s %-16s %9s %9s %6s %9s %9s %10s  %s\n",
		"cell", "n", "K", "dataset", "exact@20", "exact@N", "rate", "mean-conf", "p-value", "conf-bound", "verdict")
	return &table
}

// logTable logs a finished table under its test.
func logTable(t *testing.T, table *strings.Builder) {
	t.Logf("Threshold %.2f, %d videos per cell and dataset, α = %.2f:\n%s",
		guaranteeBase.Threshold, guaranteeVideos, guaranteeAlpha, table.String())
}

// exactTopK reports whether the answer's true scores equal the true
// Top-k's as a multiset, so a tie at the K-th level is forgiven.
func exactTopK(ids []int, truth []metrics.Ranked, k int) bool {
	want := metrics.TrueTopK(truth, k)
	if len(ids) != len(want) {
		return false
	}
	got := make([]float64, len(ids))
	for i, id := range ids {
		got[i] = truth[id].Score
	}
	slices.Sort(got)
	slices.Reverse(got)
	for i, w := range want {
		if got[i] != w.Score {
			return false
		}
	}
	return true
}

// binomCDF is P(X ≤ x) for X ~ Binomial(n, p).
func binomCDF(x, n int, p float64) float64 {
	lc, _ := math.Lgamma(float64(n + 1))
	sum := 0.0
	for i := 0; i <= x; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lc - li - lr + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return min(sum, 1)
}

// upperBound is the one-sided Clopper-Pearson upper confidence bound at
// level 1 − alpha for a rate with x successes in n trials: the largest p
// with P(X ≤ x | n, p) ≥ alpha, by bisection.
func upperBound(x, n int, alpha float64) float64 {
	if x >= n {
		return 1
	}
	lo, hi := float64(x)/float64(n), 1.0
	for range 60 {
		mid := (lo + hi) / 2
		if binomCDF(x, n, mid) >= alpha {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
