package eql

import (
	"reflect"
	"strings"
	"testing"

	everest "github.com/everest-project/everest"
)

func TestParseExplainAnalyzePrefix(t *testing.T) {
	q, err := Parse("EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Explain || !q.Analyze {
		t.Fatalf("Explain/Analyze = %v/%v, want true/true", q.Explain, q.Analyze)
	}
	q, err = Parse("EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Analyze {
		t.Fatal("plain EXPLAIN must not set Analyze")
	}
	if _, err := Parse("ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)"); err == nil {
		t.Fatal("bare ANALYZE (without EXPLAIN) should fail to parse")
	}
}

func TestExecuteRejectsAnalyze(t *testing.T) {
	_, _, err := Execute("EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)")
	if err == nil || !strings.Contains(err.Error(), "Analyze") {
		t.Fatalf("Execute on EXPLAIN ANALYZE should direct to Analyze, got %v", err)
	}
}

func TestAnalyzeRejectsParallel(t *testing.T) {
	_, err := Analyze("EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) PARALLEL 4 LIMIT FRAMES 1500", AnalyzeOptions{})
	if err == nil || !strings.Contains(err.Error(), "PARALLEL") {
		t.Fatalf("PARALLEL under EXPLAIN ANALYZE should be rejected, got %v", err)
	}
}

func TestAnalyzeReportShape(t *testing.T) {
	rep, err := Analyze("EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3", AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil || len(rep.Result.IDs) != 5 {
		t.Fatalf("analyze did not execute: %+v", rep.Result)
	}
	if rep.Config.BatchSize <= 0 {
		t.Fatalf("planner left BatchSize unset: %+v", rep.Config)
	}
	if rep.Config.Coalesce || rep.Config.UseMux {
		t.Fatalf("lone analyze chose serving knobs: %+v", rep.Config)
	}
	if len(rep.Candidates) == 0 || len(rep.Chosen.Why) == 0 {
		t.Fatal("report missing the candidate table or reasoning")
	}
	if rep.IngestMS <= 0 {
		t.Fatalf("self-ingested analyze reported IngestMS %v", rep.IngestMS)
	}
	if rep.ActualLaunches <= 0 || rep.ActualCleaned < 5 {
		t.Fatalf("engine counters missing: launches=%d cleaned=%d", rep.ActualLaunches, rep.ActualCleaned)
	}
	// Every phase row must carry a prediction and a measurement; the
	// confirm row's actual must be nonzero (the oracle ran).
	var confirmActual float64
	for _, row := range rep.Phases {
		if row.Phase == "phase2/confirm-by-oracle" {
			confirmActual = row.ActualMS
		}
	}
	if confirmActual <= 0 {
		t.Fatalf("confirm phase measured no cost: %+v", rep.Phases)
	}
	out := rep.String()
	for _, want := range []string{"chosen knobs", "batch-size", "predicted vs actual", "oracle launches", "← chosen", "reasons"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAnalyzeGoldenMatchesHandSetKnobs is the planner's determinism
// contract: executing the planner-chosen plan must be bit-identical —
// results AND simulated charges — to hand-setting the same knobs on the
// public API, for every worker count. Procs is pinned across {1, 2, 8}
// to also lock the engine's procs-never-affect-results property through
// the EXPLAIN ANALYZE path.
func TestAnalyzeGoldenMatchesHandSetKnobs(t *testing.T) {
	const stmt = "SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) THRESHOLD 0.9 LIMIT FRAMES 1500 SEED 3"
	var ref *everest.Result
	for _, procs := range []int{1, 2, 8} {
		rep, err := Analyze(stmt, AnalyzeOptions{Procs: procs})
		if err != nil {
			t.Fatalf("procs %d: %v", procs, err)
		}
		if rep.Config.Procs != procs {
			t.Fatalf("procs %d: planner overrode the pin: %+v", procs, rep.Config)
		}

		// Hand-set run: a user reading the report sets rep.Config on the
		// public API. Fresh bind, fresh ingest, fresh session.
		units, err := bindUnits(t, stmt)
		if err != nil {
			t.Fatal(err)
		}
		plan := units[0]
		ix, err := everest.BuildIndex(plan.Source, plan.UDF, rep.Config)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := everest.NewSession(ix, plan.Source, plan.UDF)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Query(rep.Config)
		if err != nil {
			t.Fatal(err)
		}

		if ix.IngestMS() != rep.IngestMS {
			t.Fatalf("procs %d: ingest cost diverged: hand %v vs analyze %v", procs, ix.IngestMS(), rep.IngestMS)
		}
		got, want := rep.Result, res
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) || got.Confidence != want.Confidence {
			t.Fatalf("procs %d: results diverged from hand-set knobs:\n%v %v %v\nvs\n%v %v %v",
				procs, got.IDs, got.Scores, got.Confidence, want.IDs, want.Scores, want.Confidence)
		}
		if !reflect.DeepEqual(got.EngineStats, want.EngineStats) {
			t.Fatalf("procs %d: engine counters diverged:\n%+v\nvs\n%+v", procs, got.EngineStats, want.EngineStats)
		}
		if got.Clock.TotalMS() != want.Clock.TotalMS() || !reflect.DeepEqual(got.Clock.Breakdown(), want.Clock.Breakdown()) {
			t.Fatalf("procs %d: simulated charges diverged:\n%v\nvs\n%v", procs, got.Clock, want.Clock)
		}

		// And across procs values: the answer itself never moves.
		if ref == nil {
			ref = rep.Result
		} else if !reflect.DeepEqual(ref.IDs, rep.Result.IDs) || ref.Clock.TotalMS() != rep.Result.Clock.TotalMS() {
			t.Fatalf("procs %d: outcome differs from procs 1", procs)
		}
	}
}

// TestAnalyzeOnSessionSkipsIngest: an EXPLAIN ANALYZE statement in a
// ScriptSession inherits its relation's index — a plain statement
// ingests, the analyze that follows pays no new Phase 1 (IngestMS 0,
// still one entry), and re-querying the session with the reported
// config reproduces the analyzed answer.
func TestAnalyzeOnSessionSkipsIngest(t *testing.T) {
	const stmt = "SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3"
	ss := NewScriptSession()
	ingests := 0
	ss.OnIngestStart = func(string, string) { ingests++ }
	if _, err := ss.Exec("SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3"); err != nil {
		t.Fatal(err)
	}
	res, err := ss.Exec("EXPLAIN ANALYZE " + stmt)
	if err != nil {
		t.Fatal(err)
	}
	if ingests != 1 || len(ss.Entries()) != 1 {
		t.Fatalf("%d ingests, %d entries: the analyze must run on the relation the plain statement opened", ingests, len(ss.Entries()))
	}
	rep := res.Statements[0].Analyze
	if rep == nil {
		t.Fatal("EXPLAIN ANALYZE statement carries no report")
	}
	if rep.IngestMS != 0 {
		t.Fatalf("session analyze reported fresh ingest cost %v", rep.IngestMS)
	}
	if rep.Result == nil || len(rep.Result.IDs) != 5 {
		t.Fatalf("session analyze did not execute: %+v", rep.Result)
	}
	// The session's cache now holds the confirmed labels; a re-run of the
	// statement must terminate on the same answer.
	again, err := ss.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got := again.Statements[0].Units[0].Result; !reflect.DeepEqual(got.IDs, rep.Result.IDs) {
		t.Fatalf("session re-query diverged: %v vs %v", got.IDs, rep.Result.IDs)
	}
}
