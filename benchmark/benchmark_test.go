package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/labelstore"
)

// contract is BENCHMARK.json as the driver reads it.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesDriver: BENCHMARK.json names exactly the workloads
// and metrics the driver knows, with the same units, directions and
// bounds.
func TestContractMatchesDriver(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, driver %v", names, workloadNames)
	}
	if len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, driver %d", len(c.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := c.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, driver %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, driver %d", len(c.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := c.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, driver %+v", i, got, d)
		}
	}
}

func metricNames(m map[string]metric) string {
	var names []string
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

func defNames(defs []metricDef) string {
	var names []string
	for _, d := range defs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	return strings.Join(names, " ")
}

// TestWorkloadsSmoke runs every workload at tiny scale, untraced and
// traced: zero failed ops, exactly the contract's metric names on the
// result line, a digest that repeats, and a ladder that reproduces the
// ops' answers.
func TestWorkloadsSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			o := options{Workload: name, Seed: 3, Seconds: 1, Tiny: true, Dir: t.TempDir()}
			rep, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			res := rep.result()
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("untraced run: %d attempted, %d failed: %v", res.Attempted, res.Failed, rep.Failures)
			}
			if got, want := metricNames(res.Metrics), defNames(endToEnd); got != want {
				t.Errorf("untraced run emits\n  %s\nwant\n  %s", got, want)
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never 0", d.Name, res.Metrics[d.Name].Value)
				}
			}

			// A second run in one process: the process-wide label cache
			// of the (video, UDF) pair is still bound to the first run's
			// durable directory.
			labelstore.ResetForTest()
			o.Trace = true
			trep, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			tres := trep.result()
			if !tres.Correct {
				t.Fatalf("traced run: %d attempted, %d failed: %v", tres.Attempted, tres.Failed, trep.Failures)
			}
			if got, want := metricNames(tres.Metrics), defNames(perLayer); got != want {
				t.Errorf("traced run emits\n  %s\nwant\n  %s", got, want)
			}
			if !strings.HasPrefix(trep.Ladder, "reproduces") {
				t.Errorf("ladder: %s", trep.Ladder)
			}
			// The traced run's first half is the untraced run's window at
			// this scale: same seed, same inputs, same digest.
			if first, _, _ := strings.Cut(trep.Digest, "+"); first != rep.Digest {
				t.Errorf("digest %s in the untraced run, %s in the traced run's untraced passes", rep.Digest, first)
			}
			if tres.Metrics["driver.ladder_coverage"].Value <= 0 {
				t.Errorf("ladder coverage not reported")
			}
		})
	}
}

// TestWrongAnswerIsAFailedOp: an answer that breaks a check is counted
// as a failed op and leaves the result incorrect.
func TestWrongAnswerIsAFailedOp(t *testing.T) {
	tr := truthOf([]float64{1, 5, 3, 4, 2, 0}, 1)
	good := answer{IDs: []int{1, 3}, Scores: []float64{5, 4}, Confidence: 0.95, K: 2, Threshold: 0.9, Frames: 6, Truth: tr}
	if err := good.check(); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if p := good.precision(); p != 1 {
		t.Errorf("precision of the exact top-2 = %v", p)
	}
	bad := map[string]answer{
		"wrong score":    {IDs: []int{1, 3}, Scores: []float64{5, 3}, Confidence: 0.95, K: 2, Threshold: 0.9, Frames: 6, Truth: tr},
		"short":          {IDs: []int{1}, Scores: []float64{5}, Confidence: 0.95, K: 2, Threshold: 0.9, Frames: 6, Truth: tr},
		"increasing":     {IDs: []int{3, 1}, Scores: []float64{4, 5}, Confidence: 0.95, K: 2, Threshold: 0.9, Frames: 6, Truth: tr},
		"low confidence": {IDs: []int{1, 3}, Scores: []float64{5, 4}, Confidence: 0.5, K: 2, Threshold: 0.9, Frames: 6, Truth: tr},
	}
	for name, a := range bad {
		if a.check() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	win := &window{outs: [][]opOut{{
		{Answers: []answer{good}, SimMS: 10},
		{Answers: []answer{bad["wrong score"]}, SimMS: 10},
	}}}
	rep := &report{Metrics: map[string]float64{}}
	verify(win, rep)
	if rep.Attempted != 2 || rep.Failed != 1 || rep.result().Correct {
		t.Errorf("attempted %d, failed %d, correct %v; want 2, 1, false", rep.Attempted, rep.Failed, rep.result().Correct)
	}
}

// TestPercentileIsNearestRank pins the statistic the latency metrics
// are made of.
func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.25: 2, 0.5: 3, 0.9: 5, 1: 5} {
		if got := percentile(xs, q); got != want {
			t.Errorf("percentile(%v) = %v, want %v", q, got, want)
		}
	}
}

// TestWallClockStatisticsArePerPass: ops_per_s and the latency
// percentiles are taken per pass and reported as the median over passes,
// so one slow pass moves nothing and a cost that lands in every pass
// shows in all three.
func TestWallClockStatisticsArePerPass(t *testing.T) {
	pass := func(scale float64) []float64 {
		lat := make([]float64, 10)
		for i := range lat {
			lat[i] = scale * float64(i+1)
		}
		return lat
	}
	win := &window{
		passS: []float64{0.055, 0.055, 0.550},
		latMS: [][]float64{pass(1), pass(1), pass(10)},
	}
	if got, want := win.opsPerS(), 10/0.055; got != want {
		t.Errorf("ops_per_s = %v, want %v", got, want)
	}
	if p50, p90 := win.latencyMS(0.50), win.latencyMS(0.90); p50 != 5 || p90 != 9 {
		t.Errorf("p50, p90 = %v, %v; want 5, 9", p50, p90)
	}
	// A 100 ms stall on one op of every pass.
	for p := range win.latMS {
		win.latMS[p][9] += 100
		win.passS[p] += 0.100
	}
	if got, want := win.opsPerS(), 10/0.155; got != want {
		t.Errorf("with a stall in every pass ops_per_s = %v, want %v", got, want)
	}
	if p90 := win.latencyMS(0.90); p90 != 9 {
		t.Errorf("p90 = %v after a stall on 1 op in 10, want 9 (the stall is beyond p90)", p90)
	}
}

// TestWallClockStatisticsAreOfUnstolenTime: time the host took from the
// machine during a pass is taken out of the pass's wall time, and the
// pass's latencies shrink by the same share.
func TestWallClockStatisticsAreOfUnstolenTime(t *testing.T) {
	lat := []float64{10, 20, 30, 40}
	quiet := &window{passS: []float64{0.1}, latMS: [][]float64{lat}, stolenS: []float64{0}}
	robbed := &window{passS: []float64{0.2}, latMS: [][]float64{{20, 40, 60, 80}}, stolenS: []float64{0.1}}
	if q, r := quiet.opsPerS(), robbed.opsPerS(); q != r {
		t.Errorf("ops_per_s = %v quiet, %v with half the pass stolen; want equal", q, r)
	}
	if q, r := quiet.latencyMS(0.5), robbed.latencyMS(0.5); q != r {
		t.Errorf("p50 = %v quiet, %v with half the pass stolen; want equal", q, r)
	}
	if got := unstolen(1, 0.9); got != 0.25 {
		t.Errorf("unstolen(1, 0.9) = %v, want the floor of a quarter", got)
	}
}
