package eql

import (
	"testing"

	"github.com/everest-project/everest/internal/golden"
)

// The transcript's statements: every statement shape the language has,
// on videos short enough that the whole transcript runs in seconds.
const (
	goldenFrames    = `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`
	goldenTumbling  = `SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`
	goldenSliding   = `SELECT TOP 3 WINDOWS OF 60 EVERY 20 FROM Archie RANK BY count(car) SAMPLE 0.2 LIMIT FRAMES 1500 SEED 3`
	goldenParallel  = `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3 PARALLEL 3`
	goldenThreshold = `SELECT TOP 4 FRAMES FROM Archie RANK BY count(car) THRESHOLD 0.95 LIMIT FRAMES 1500 SEED 3`
	goldenCross     = `SELECT TOP 3 FRAMES FROM Archie, "Grand-Canal" RANK BY count() LIMIT FRAMES 1200 SEED 3`
	goldenAnd       = `SELECT TOP 8 FRAMES FROM Archie RANK BY count(car) AND count(truck) LIMIT FRAMES 1500 SEED 3`
	goldenStream    = `SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500`
	goldenUnknown   = `SELECT TOP 5 FRAMES FROM NoSuchVideo RANK BY count(car)`
)

// goldenStatements are rendered one by one through Explain and Analyze.
var goldenStatements = []struct{ name, src string }{
	{"frames", goldenFrames},
	{"tumbling", goldenTumbling},
	{"sliding", goldenSliding},
	{"parallel", goldenParallel},
	{"default-class", `SELECT TOP 3 FRAMES FROM "Grand-Canal" RANK BY count() LIMIT FRAMES 1200 SEED 3`},
	{"threshold", goldenThreshold},
	{"tiny-video", `SELECT TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 640 SEED 3`},
	{"cross-video", goldenCross},
	{"and", goldenAnd},
	{"stream", goldenStream},
	{"unknown-dataset", goldenUnknown},
	{"wrong-udf", `SELECT TOP 5 FRAMES FROM Archie RANK BY tailgate() LIMIT FRAMES 1500`},
}

// goldenScripts are the scripts ExplainScript renders.
var goldenScripts = []struct{ name, src string }{
	{"one-statement", goldenFrames},
	{"shared-relation", goldenFrames + ";\n" + goldenTumbling + ";\n" +
		`EXPLAIN ` + goldenThreshold + ";\n" +
		`EXPLAIN ANALYZE SELECT TOP 3 FRAMES FROM "Grand-Canal" RANK BY count(boat) LIMIT FRAMES 1200 SEED 3`},
	{"sliding-and-parallel", goldenSliding + ";\n" + goldenParallel},
	{"cross-video", goldenCross},
	{"and", goldenAnd + ";\n" + goldenFrames},
	{"stream", goldenStream + ";\n" + goldenFrames},
	{"explained-parallel-and-stream", `EXPLAIN ` + goldenParallel + ";\n" + `EXPLAIN ` + goldenStream},
	{"analyze-parallel", `EXPLAIN ANALYZE ` + goldenParallel},
	{"unknown-dataset", goldenFrames + ";\n" + goldenUnknown},
}

// TestGoldenTranscript pins the text EQL's three renderers produce —
// Explain, ExplainScript and the EXPLAIN ANALYZE report — byte for
// byte, errors included. The planner's choices, the predicted costs and
// the analyzed runs' simulated charges are all deterministic, so any
// change to this file is a behaviour change the PR must name.
func TestGoldenTranscript(t *testing.T) {
	var tr golden.Transcript
	for _, c := range goldenStatements {
		out, err := Explain(c.src)
		tr.Add("explain/"+c.name, c.src, out, err)
	}
	for _, c := range goldenScripts {
		out, err := ExplainScript(c.src)
		tr.Add("explain-script/"+c.name, c.src, out, err)
	}
	for _, c := range goldenStatements {
		out := ""
		rep, err := Analyze(c.src, AnalyzeOptions{})
		if err == nil {
			out = rep.String()
		}
		tr.Add("analyze/"+c.name, c.src, out, err)
	}
	tr.Check(t, "testdata/golden_transcript.txt")
}
