package eql

import (
	"fmt"
	"strings"
	"testing"

	"github.com/everest-project/everest/internal/engine"
	"github.com/everest-project/everest/internal/phase1"
	"github.com/everest-project/everest/internal/simclock"
)

func TestParseSlidingWindowClause(t *testing.T) {
	q, err := Parse("SELECT TOP 5 WINDOWS OF 300 EVERY 30 FROM Archie RANK BY count(car)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Window != 300 || q.Stride != 30 {
		t.Fatalf("window/stride = %d/%d, want 300/30", q.Window, q.Stride)
	}
}

func TestParseTumblingHasZeroStride(t *testing.T) {
	q, err := Parse("SELECT TOP 5 WINDOWS OF 300 FROM Archie RANK BY count(car)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Stride != 0 {
		t.Fatalf("stride = %d, want 0 (tumbling default)", q.Stride)
	}
}

func TestParseParallelClause(t *testing.T) {
	q, err := Parse("SELECT TOP 50 FRAMES FROM Archie RANK BY count(car) PARALLEL 4 SEED 2")
	if err != nil {
		t.Fatal(err)
	}
	if q.Parallel != 4 || q.Seed != 2 {
		t.Fatalf("parallel/seed = %d/%d, want 4/2", q.Parallel, q.Seed)
	}
}

func TestParseExplainPrefix(t *testing.T) {
	q, err := Parse("EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain {
		t.Fatal("EXPLAIN not recognized")
	}
}

func TestParseNewClauseErrors(t *testing.T) {
	bad := []string{
		"SELECT TOP 5 WINDOWS OF 300 EVERY 0 FROM Archie RANK BY count(car)",
		"SELECT TOP 5 WINDOWS OF 300 EVERY FROM Archie RANK BY count(car)",
		"SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) PARALLEL 0",
		"SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) PARALLEL x",
		"EXPLAIN EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Fatalf("statement %q should fail to parse", src)
		}
	}
}

func TestExecuteRejectsExplain(t *testing.T) {
	_, _, err := Execute("EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)")
	if err == nil || !strings.Contains(err.Error(), "Explain") {
		t.Fatalf("Execute on EXPLAIN should direct to Explain, got %v", err)
	}
}

func TestExplainDescribesPlan(t *testing.T) {
	out, err := Explain("EXPLAIN SELECT TOP 10 WINDOWS OF 300 EVERY 30 FROM Archie RANK BY count(car) THRESHOLD 0.95 PARALLEL 4 LIMIT FRAMES 1500")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"top-10", "size=300 stride=30", "union bound", "0.95",
		"4 workers", "scan-and-test", "phase 1", "phase 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainWorksWithoutKeyword(t *testing.T) {
	out, err := Explain("SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "frames") || !strings.Contains(out, "Archie") {
		t.Fatalf("explain output incomplete:\n%s", out)
	}
}

func TestExplainBindErrorsSurface(t *testing.T) {
	if _, err := Explain("SELECT TOP 5 FRAMES FROM NoSuchVideo RANK BY count(car)"); err == nil {
		t.Fatal("unknown dataset must fail at bind time")
	}
}

func TestBindPropagatesStrideAndWorkers(t *testing.T) {
	units, err := bindUnits(t, "SELECT TOP 3 WINDOWS OF 60 EVERY 20 FROM Archie RANK BY count(car) PARALLEL 2 LIMIT FRAMES 1500")
	if err != nil {
		t.Fatal(err)
	}
	u := units[0]
	if u.Config.Window != 60 || u.Config.Stride != 20 {
		t.Fatalf("unit window/stride = %d/%d", u.Config.Window, u.Config.Stride)
	}
	if u.Workers != 2 || u.Kind != KindScaleOut || u.Rel != nil {
		t.Fatalf("unit workers/kind/rel = %d/%d/%v, want 2, scale-out, no relation", u.Workers, u.Kind, u.Rel)
	}
}

func TestExecuteSlidingWindowStatement(t *testing.T) {
	res, plan, err := Execute("SELECT TOP 3 WINDOWS OF 60 EVERY 30 FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Config.Stride != 30 {
		t.Fatalf("plan stride = %d", plan.Config.Stride)
	}
	if !res.IsWindow || res.WindowStride != 30 {
		t.Fatalf("result metadata: %+v", res)
	}
	if res.Bound.String() != "union" {
		t.Fatalf("overlapping EQL windows must use the union bound, got %v", res.Bound)
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v", res.Confidence)
	}
}

func TestExecuteParallelStatement(t *testing.T) {
	res, plan, err := Execute("SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) PARALLEL 2 LIMIT FRAMES 2000 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workers != 2 {
		t.Fatalf("plan workers = %d", plan.Workers)
	}
	if len(res.IDs) != 5 || res.Confidence < 0.9 {
		t.Fatalf("parallel EQL result: %d ids, confidence %v", len(res.IDs), res.Confidence)
	}
}

// TestExplainSampleEstimateMatchesPhase1: EXPLAIN's "label ≈N samples"
// is the number of frames Phase 1 will label for a video of that
// length — tiny-video fallback, floor and fraction regimes alike.
func TestExplainSampleEstimateMatchesPhase1(t *testing.T) {
	for _, n := range []int{640, 1200, 4000, 2000000} {
		out, err := Explain(fmt.Sprintf("SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES %d", n))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := phase1.PlanSamples(n, phase1.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("label ≈%d samples", len(plan.TrainIdx)+len(plan.HoldIdx))
		if !strings.Contains(out, want) {
			t.Fatalf("%d frames: EXPLAIN does not say %q:\n%s", n, want, out)
		}
	}
}

// TestPlannerInputIsTheCompiledPlan: for every transcript statement
// that binds, each unit's planner input carries the K, window, stride,
// sample fraction and cost model of the plan the engine compiles the
// unit's Config to — EXPLAIN prices the defaults the engine runs, with
// a tumbling window's stride and the unset sample fraction and cost
// model already resolved.
func TestPlannerInputIsTheCompiledPlan(t *testing.T) {
	units := 0
	for _, c := range goldenStatements {
		script, err := ParseScript(c.src)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := BindScript(script)
		if err != nil {
			continue // the unknown-dataset and wrong-udf statements
		}
		for _, u := range sp.Units {
			p, err := engine.NewPlan(u.Config.Plan())
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			in := plannerInput(u)
			got := [5]any{in.K, in.Window, in.Stride, in.WindowSampleFrac, in.Cost}
			want := [5]any{p.K, p.Window.Size, p.Window.Stride, p.Window.SampleFrac, p.Cost}
			if got != want {
				t.Fatalf("%s: planner input (K, window, stride, sample, cost) = %v, compiled plan %v", c.name, got, want)
			}
			if in.Cost != simclock.Default() || in.WindowSampleFrac == 0 || in.Window > 0 && in.Stride <= 0 {
				t.Fatalf("%s: planner input left a default unresolved: %+v", c.name, in)
			}
			units++
		}
	}
	if units < 10 {
		t.Fatalf("only %d units checked", units)
	}
}
