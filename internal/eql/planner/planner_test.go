package planner

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/simclock"
)

// servedInput is a post-ingest (index-backed) frame query: 500 uncertain
// tuples (600 retained minus 100 already exact), K=10.
func servedInput() Input {
	return Input{
		Frames:       3000,
		K:            10,
		UDFFrameMS:   simclock.Default().OracleMS,
		Cost:         simclock.Default(),
		Retained:     600,
		Certain:      100,
		HasIndex:     true,
		CascadeFixed: true,
	}
}

// TestChooseDerivesPaperBatchSize locks the planner to the §3.5
// trade-off: per-launch overhead amortization vs overshooting the
// stopping point by half a batch. At K=10 over 500 uncertain tuples the
// cost curve is 7200/5600/5160/5080/5720/7320 ms for b=1..32 — the
// argmin independently derives the paper's b=8 default.
func TestChooseDerivesPaperBatchSize(t *testing.T) {
	in := servedInput()
	chosen := Choose(in)
	if chosen.Knobs.BatchSize != 8 {
		t.Fatalf("chosen batch = %d, want 8", chosen.Knobs.BatchSize)
	}
	m := in.Cost
	wantByBatch := map[int]float64{
		1:  20*m.OracleMS + 20*m.OracleCallMS,
		2:  20*m.OracleMS + 10*m.OracleCallMS,
		4:  21*m.OracleMS + 6*m.OracleCallMS,
		8:  23*m.OracleMS + 3*m.OracleCallMS,
		16: 27*m.OracleMS + 2*m.OracleCallMS,
		32: 35*m.OracleMS + 2*m.OracleCallMS,
	}
	for _, c := range Enumerate(in) {
		if got, want := c.Pred.ConfirmMS, wantByBatch[c.Knobs.BatchSize]; got != want {
			t.Fatalf("b=%d: ConfirmMS = %v, want %v", c.Knobs.BatchSize, got, want)
		}
		if c.Pred.Phase1MS != 0 {
			t.Fatalf("b=%d: index-backed plan predicted ingest cost %v", c.Knobs.BatchSize, c.Pred.Phase1MS)
		}
	}
	if chosen.Pred.Launches != 3 || chosen.Pred.Cleaned != 23 {
		t.Fatalf("chosen prediction = %d launches / %d cleaned, want 3 / 23", chosen.Pred.Launches, chosen.Pred.Cleaned)
	}
}

func TestEnumerateMarksExactlyOneChosen(t *testing.T) {
	cands := Enumerate(servedInput())
	if len(cands) != 6 {
		t.Fatalf("index-backed grid has %d candidates, want 6 (batch sizes only)", len(cands))
	}
	n := 0
	for _, c := range cands {
		if c.Chosen {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d candidates marked chosen, want 1", n)
	}
}

// TestServingKnobsFollowConcurrency: coalesce/mux are scheduling-only
// knobs — on under expected concurrency, off for a lone query.
func TestServingKnobsFollowConcurrency(t *testing.T) {
	lone := Choose(servedInput())
	if lone.Knobs.Coalesce || lone.Knobs.UseMux {
		t.Fatalf("lone query chose serving knobs: %+v", lone.Knobs)
	}

	in := servedInput()
	in.Concurrency = 4
	shared := Choose(in)
	if !shared.Knobs.Coalesce || !shared.Knobs.UseMux {
		t.Fatalf("concurrency 4 left serving knobs off: %+v", shared.Knobs)
	}
	// Serving knobs must never change the single-query cost prediction.
	if shared.Pred.TotalMS != lone.Pred.TotalMS {
		t.Fatalf("serving knobs changed predicted total: %v vs %v", shared.Pred.TotalMS, lone.Pred.TotalMS)
	}
}

// ingestInput is a pre-ingest frame query where the cascade knob is
// still free.
func ingestInput(cost simclock.CostModel) Input {
	return Input{
		Frames:       1000,
		K:            5,
		UDFFrameMS:   cost.OracleMS,
		Cost:         cost,
		TrainSamples: 600,
	}
}

// TestCascadeChoiceFollowsCostModel: under the default model the diff
// filter pays for itself (cheap MSE prunes expensive proxy scoring and
// shrinks the uncertain relation); under a skewed model where diffing
// is expensive and the proxy near-free, the planner drops the filter.
func TestCascadeChoiceFollowsCostModel(t *testing.T) {
	keep := Choose(ingestInput(simclock.Default()))
	if keep.Knobs.DisableDiff {
		t.Fatalf("default model dropped the diff filter: %+v", keep.Knobs)
	}

	skewed := simclock.Default()
	skewed.DiffMS = 50
	skewed.ProxyMS = 0.1
	drop := Choose(ingestInput(skewed))
	if !drop.Knobs.DisableDiff {
		t.Fatalf("skewed model (diff 50 ms, proxy 0.1 ms) kept the filter: %+v", drop.Knobs)
	}
	if drop.Pred.Phase1MS <= 0 {
		t.Fatal("pre-ingest plan predicted zero Phase 1 cost")
	}
}

// TestProcsHeuristicIsWorkloadSized: wide pool for large workloads,
// serial for small, pinnable by the caller — and always annotated as
// wall-clock-only.
func TestProcsHeuristicIsWorkloadSized(t *testing.T) {
	small := Choose(servedInput())
	if small.Knobs.Procs != 1 {
		t.Fatalf("500-tuple workload chose %d workers, want 1", small.Knobs.Procs)
	}

	big := ingestInput(simclock.Default())
	big.Frames = 30000
	if got := Choose(big).Knobs.Procs; got != WideProcs {
		t.Fatalf("30000-frame ingest chose %d workers, want %d", got, WideProcs)
	}

	pinned := servedInput()
	pinned.PinProcs = 2
	if got := Choose(pinned).Knobs.Procs; got != 2 {
		t.Fatalf("PinProcs=2 chose %d workers", got)
	}

	found := false
	for _, w := range small.Why {
		if strings.Contains(w, "wall-clock only") {
			found = true
		}
	}
	if !found {
		t.Fatalf("procs reasoning missing the wall-clock-only caveat: %v", small.Why)
	}
}

// TestWindowQueryPricesSampledConfirmation: window tuples confirm via
// per-window sampling, so the predicted confirmation bill prices
// cleaned × samples-per-window oracle frames.
func TestWindowQueryPricesSampledConfirmation(t *testing.T) {
	in := servedInput()
	in.Window, in.Stride, in.WindowSampleFrac = 300, 30, 0.1
	chosen := Choose(in)
	spw := in.samplesPerWindow()
	if spw != 30 {
		t.Fatalf("samplesPerWindow = %d, want 30 (ceil(0.1×300))", spw)
	}
	want := in.Cost.ConfirmMS(chosen.Pred.Cleaned*spw, chosen.Pred.Launches, in.UDFFrameMS)
	if chosen.Pred.ConfirmMS != want {
		t.Fatalf("window ConfirmMS = %v, want %v for cleaned %d × %d frames",
			chosen.Pred.ConfirmMS, want, chosen.Pred.Cleaned, spw)
	}
}

// TestChooseIsDeterministic: same input, same plan — the planner has no
// hidden state or randomness.
func TestChooseIsDeterministic(t *testing.T) {
	in := servedInput()
	in.Concurrency = 4
	a, b := Choose(in), Choose(in)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two Choose calls diverged:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Why) == 0 {
		t.Fatal("chosen candidate has no reasoning")
	}
}

// freshInput is a pre-ingest unit (no index yet): the set planner must
// price its Phase 1 and share it within a relation group.
func freshInput() Input {
	return Input{
		Frames:       3000,
		K:            10,
		UDFFrameMS:   simclock.Default().OracleMS,
		Cost:         simclock.Default(),
		TrainSamples: 760,
	}
}

// TestChooseSetOneBudget locks the joint serving budget: the set's own
// width decides coalesce and mux once for every unit — never a caller
// hint.
func TestChooseSetOneBudget(t *testing.T) {
	lone := ChooseSet(SetInput{Units: []Input{freshInput()}})
	if lone.Concurrency != 1 || lone.Coalesce || lone.UseMux {
		t.Fatalf("lone unit budget wrong: %+v", lone)
	}
	if lone.SavedMS() != 0 || lone.TotalMS != lone.IndependentMS {
		t.Fatalf("lone unit must price as an independent run: %+v", lone)
	}

	// Three units turn the serving knobs on for all of them.
	wide := ChooseSet(SetInput{Units: []Input{freshInput(), freshInput(), freshInput()}})
	if wide.Concurrency != 3 || !wide.Coalesce || !wide.UseMux {
		t.Fatalf("three-unit budget wrong: %+v", wide)
	}
	for i, u := range wide.Units {
		if !u.Knobs.Coalesce || !u.Knobs.UseMux {
			t.Fatalf("unit %d left out of the set's budget: %+v", i, u.Knobs)
		}
	}
}

// TestChooseSetConcurrencyCountsUnits: the set's concurrency is exactly
// its unit count — nothing else widens it — and serving turns on from
// two units up, for every unit alike.
func TestChooseSetConcurrencyCountsUnits(t *testing.T) {
	for n := 1; n <= 4; n++ {
		units := make([]Input, n)
		for i := range units {
			units[i] = freshInput()
		}
		set := ChooseSet(SetInput{Units: units})
		if set.Concurrency != n || set.Coalesce != (n > 1) || set.UseMux != (n > 1) {
			t.Fatalf("%d units: budget concurrency %d, coalesce %t, mux %t",
				n, set.Concurrency, set.Coalesce, set.UseMux)
		}
		for i, u := range set.Units {
			if u.Knobs.Coalesce != set.Coalesce || u.Knobs.UseMux != set.UseMux {
				t.Fatalf("%d units: unit %d knobs %+v disagree with the set's budget", n, i, u.Knobs)
			}
		}
	}
}

// TestChooseSetSharedGroupPricing locks the shared-relation pricing:
// a group pays one ingest and one confirmation bill, so the coordinated
// total is strictly below the independent sum, with the saving split
// into its ingest and confirmation parts.
func TestChooseSetSharedGroupPricing(t *testing.T) {
	set := ChooseSet(SetInput{
		Units:  []Input{freshInput(), freshInput(), freshInput()},
		Shared: [][]int{{0, 1}},
	})
	if set.Concurrency != 3 || !set.Coalesce || !set.UseMux {
		t.Fatalf("set budget wrong: %+v", set)
	}
	if len(set.Units) != 3 {
		t.Fatalf("%d unit candidates, want 3", len(set.Units))
	}
	if set.TotalMS >= set.IndependentMS {
		t.Fatalf("coordinated %v must undercut independent %v", set.TotalMS, set.IndependentMS)
	}
	if set.SharedIngestMS <= 0 || set.SharedConfirmMS <= 0 {
		t.Fatalf("shared savings not priced: ingest %v, confirm %v", set.SharedIngestMS, set.SharedConfirmMS)
	}
	if got, want := set.SavedMS(), set.SharedIngestMS+set.SharedConfirmMS; math.Abs(got-want) > 1e-6 {
		t.Fatalf("SavedMS %v != shared ingest %v + shared confirm %v", got, set.SharedIngestMS, set.SharedConfirmMS)
	}
	foundShare := false
	for _, w := range set.Why {
		if strings.Contains(w, "share one relation") {
			foundShare = true
		}
	}
	if !foundShare {
		t.Fatalf("set reasoning missing the sharing line: %v", set.Why)
	}

	// Determinism: same input, same plan.
	again := ChooseSet(SetInput{
		Units:  []Input{freshInput(), freshInput(), freshInput()},
		Shared: [][]int{{0, 1}},
	})
	if !reflect.DeepEqual(set, again) {
		t.Fatal("ChooseSet is not deterministic")
	}
}
