package eql

import (
	"reflect"
	"strings"
	"testing"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/vision"
)

const scriptA = `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 3000 SEED 3`
const scriptB = `SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car) LIMIT FRAMES 3000 SEED 3`
const scriptC = `SELECT TOP 4 FRAMES FROM Archie RANK BY count(car) THRESHOLD 0.95 LIMIT FRAMES 3000 SEED 3`

func TestBindScriptSharesRelations(t *testing.T) {
	s, err := ParseScript(scriptA + ";" + scriptB + ";" +
		`SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 3000 SEED 5`)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := BindScript(s)
	if err != nil {
		t.Fatal(err)
	}
	// Statements 1 and 2 share (Archie, 3000, count(car), 3); statement 3
	// differs in seed, so it is its own relation.
	if len(sp.Relations) != 2 {
		t.Fatalf("%d relations, want 2", len(sp.Relations))
	}
	if got := sp.SharedUnits(); got != 1 {
		t.Fatalf("SharedUnits() = %d, want 1", got)
	}
	rel := sp.Relations[0]
	if len(rel.Units) != 2 {
		t.Fatalf("first relation has %d units, want 2", len(rel.Units))
	}
	// Shared units are rebound to the relation's one source and UDF
	// instance, so the shared session sees a single identity.
	if rel.Units[0].Source != rel.Units[1].Source || rel.Units[0].UDF != rel.Units[1].UDF {
		t.Fatal("shared units must share the relation's source and UDF instances")
	}
}

func TestBindScriptAllOrNothing(t *testing.T) {
	src := scriptA + `; SELECT TOP 5 FRAMES FROM NoSuchVideo RANK BY count(car)`
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = BindScript(s)
	if err == nil {
		t.Fatal("bind of a script with an unknown dataset must fail")
	}
	var pe *ParseError
	if !asParseError(err, &pe) {
		t.Fatalf("bind error %v (%T), want *ParseError", err, err)
	}
	if want := strings.Index(src, "NoSuchVideo"); pe.Pos != want {
		t.Fatalf("bind error at %d, want %d", pe.Pos, want)
	}
}

func asParseError(err error, out **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*out = pe
	}
	return ok
}

// TestScriptSharedSubPlanDeterminism is the in-package version of the
// root golden test: a script whose statements share a relation is
// bit-identical — results and charges — to executing the statements one
// at a time in order on a fresh session, and cheaper in total oracle
// calls than independent runs.
func TestScriptSharedSubPlanDeterminism(t *testing.T) {
	script := scriptA + ";" + scriptB + ";" + scriptC

	ss := NewScriptSession()
	together, err := ss.Exec(script)
	if err != nil {
		t.Fatal(err)
	}
	if together.Relations != 1 || together.SharedUnits != 2 {
		t.Fatalf("coordination header wrong: %d relations, %d shared", together.Relations, together.SharedUnits)
	}

	serial := NewScriptSession()
	var serialResults []*everest.Result
	for _, stmt := range []string{scriptA, scriptB, scriptC} {
		r, err := serial.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		serialResults = append(serialResults, r.Statements[0].Units[0].Result)
	}

	independentCalls := 0
	for _, stmt := range []string{scriptA, scriptB, scriptC} {
		fresh := NewScriptSession()
		r, err := fresh.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		independentCalls += r.OracleCalls
	}

	for i, sr := range together.Statements {
		got := sr.Units[0].Result
		want := serialResults[i]
		if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Fatalf("statement %d: script answer differs from serial execution\n got %v\nwant %v", i, got.IDs, want.IDs)
		}
		if got.Confidence != want.Confidence {
			t.Fatalf("statement %d: confidence %v vs serial %v", i, got.Confidence, want.Confidence)
		}
		if got.EngineStats.OracleCalls != want.EngineStats.OracleCalls ||
			got.EngineStats.Cleaned != want.EngineStats.Cleaned {
			t.Fatalf("statement %d: charges differ from serial execution: %+v vs %+v",
				i, got.EngineStats, want.EngineStats)
		}
		if got.Clock.TotalMS() != want.Clock.TotalMS() {
			t.Fatalf("statement %d: simulated cost %v vs serial %v", i, got.Clock.TotalMS(), want.Clock.TotalMS())
		}
	}
	if together.OracleCalls >= independentCalls {
		t.Fatalf("coordinated script paid %d oracle calls, independent sum is %d — sharing must cut the bill",
			together.OracleCalls, independentCalls)
	}
}

func TestScriptAndPredicates(t *testing.T) {
	ss := NewScriptSession()
	res, err := ss.Exec(`SELECT TOP 8 FRAMES FROM Archie RANK BY count(car) AND count(truck) LIMIT FRAMES 3000 SEED 3`)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Statements[0]
	if len(sr.Units) != 2 {
		t.Fatalf("%d units, want 2", len(sr.Units))
	}
	if len(sr.And) != 1 {
		t.Fatalf("%d AND results, want 1", len(sr.And))
	}
	first := map[int]int{}
	for rank, id := range sr.Units[0].Result.IDs {
		first[id] = rank
	}
	second := map[int]bool{}
	for _, id := range sr.Units[1].Result.IDs {
		second[id] = true
	}
	last := -1
	for _, id := range sr.And[0].IDs {
		rank, inFirst := first[id]
		if !inFirst || !second[id] {
			t.Fatalf("AND id %d is not in both predicates' top-K", id)
		}
		if rank <= last {
			t.Fatalf("AND ids not ordered by the first predicate's rank: %v", sr.And[0].IDs)
		}
		last = rank
	}
	// Two predicates over one video are two UDFs → two relations, no
	// sharing, but still one coordinated budget.
	if res.Relations != 2 || res.SharedUnits != 0 {
		t.Fatalf("AND coordination wrong: %d relations, %d shared", res.Relations, res.SharedUnits)
	}
	if res.Concurrency < 2 {
		t.Fatalf("joint budget must see both units, got concurrency %d", res.Concurrency)
	}
}

func TestScriptCrossVideo(t *testing.T) {
	ss := NewScriptSession()
	res, err := ss.Exec(`SELECT TOP 3 FRAMES FROM Archie, "Grand-Canal" RANK BY count() LIMIT FRAMES 2000 SEED 3`)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Statements[0]
	if len(sr.Units) != 2 {
		t.Fatalf("%d units, want 2", len(sr.Units))
	}
	if sr.Units[0].Dataset != "Archie" || sr.Units[1].Dataset != "Grand-Canal" {
		t.Fatalf("unit datasets wrong: %q, %q", sr.Units[0].Dataset, sr.Units[1].Dataset)
	}
	// count() defaults to each source's target class.
	if sr.Units[1].Predicate != "count(boat)" {
		t.Fatalf("Grand-Canal unit bound %q, want count(boat)", sr.Units[1].Predicate)
	}
	for _, ur := range sr.Units {
		if ur.Result == nil || len(ur.Result.IDs) != 3 {
			t.Fatalf("unit %s/%s incomplete: %+v", ur.Dataset, ur.Predicate, ur.Result)
		}
	}
}

func TestScriptStreamStatements(t *testing.T) {
	ss := NewScriptSession()
	// Unattached live stream: the statement fails with its source
	// position, the script session survives.
	src := `SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 2000`
	_, err := ss.Exec(src)
	if err == nil || !strings.Contains(err.Error(), "no live stream attached") {
		t.Fatalf("unattached STREAM statement: %v", err)
	}

	vsrc, _, err := bindSource(SourceRef{Name: "Archie"}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	live, err := everest.OpenLive(vsrc, vision.CountUDF{Class: vsrc.TargetClass()},
		everest.Config{K: 3, Seed: 3}, everest.LiveConfig{SegmentFrames: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	ss.AttachLive("Archie", live)
	res, err := ss.Exec(src)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Statements[0]
	if len(sr.Followers) != 1 {
		t.Fatalf("%d followers registered, want 1", len(sr.Followers))
	}
	if err := live.Append(600); err != nil {
		t.Fatal(err)
	}
	if a := sr.Followers[0].Answer(); a == nil || len(a.IDs) != 3 {
		t.Fatalf("follower answer after a segment close: %+v", a)
	}
	// STREAM statements never build batch relations.
	if len(ss.Entries()) != 0 {
		t.Fatalf("STREAM registration must not ingest, have %d entries", len(ss.Entries()))
	}
}

func TestScriptExplainAndAnalyze(t *testing.T) {
	ss := NewScriptSession()
	res, err := ss.Exec(`EXPLAIN ` + scriptA)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Statements[0].Explain, "plan: everest top-5") {
		t.Fatalf("explain text wrong:\n%s", res.Statements[0].Explain)
	}
	if len(ss.Entries()) != 0 {
		t.Fatal("EXPLAIN must not ingest")
	}

	res, err = ss.Exec(`EXPLAIN ANALYZE ` + scriptA + ";" + scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Statements[0].Analyze == nil {
		t.Fatal("EXPLAIN ANALYZE statement must carry a report")
	}
	if res.Statements[1].Units[0].Result == nil {
		t.Fatal("plain statement next to an analyze must still run")
	}
	if len(ss.Entries()) != 1 {
		t.Fatalf("analyze and plain statement share one relation, have %d", len(ss.Entries()))
	}
}

// TestInScriptAnalyzeIsPlannedAlone: an EXPLAIN ANALYZE inside a wide
// script flushes the pending group and runs by itself, so its report
// plans a lone query — serving knobs off, no coalesce claim — while the
// script's own budget still counts every runnable unit.
func TestInScriptAnalyzeIsPlannedAlone(t *testing.T) {
	ss := NewScriptSession()
	res, err := ss.Exec(scriptA + "; EXPLAIN ANALYZE " + scriptC + ";" + scriptB)
	if err != nil {
		t.Fatal(err)
	}
	if res.Concurrency != 3 || !res.Coalesce || !res.UseMux {
		t.Fatalf("script budget: concurrency %d, coalesce %t, mux %t; want 3, on, on",
			res.Concurrency, res.Coalesce, res.UseMux)
	}
	rep := res.Statements[1].Analyze
	if rep == nil {
		t.Fatal("EXPLAIN ANALYZE statement must carry a report")
	}
	if rep.Config.Coalesce || rep.Config.UseMux || rep.Chosen.Knobs.Coalesce || rep.Chosen.Knobs.UseMux {
		t.Fatalf("in-script ANALYZE planned serving knobs: config %+v, chosen %+v", rep.Config, rep.Chosen.Knobs)
	}
	text := rep.String()
	for _, want := range []string{"coalesce off: lone query", "mux off: lone query", "use-mux              false"} {
		if !strings.Contains(text, want) {
			t.Fatalf("in-script ANALYZE report missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "coalesce on") || strings.Contains(text, "mux on") {
		t.Fatalf("in-script ANALYZE report claims a shared run:\n%s", text)
	}
}

func TestExplainScriptRendering(t *testing.T) {
	out, err := ExplainScript(scriptA + ";" + scriptB)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"script: 2 statement(s)",
		"one budget: concurrency 2, coalesce on, mux on",
		"shared work:",
		"ingest bound once",
		"totals: coordinated",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ExplainScript output missing %q:\n%s", want, out)
		}
	}
}
