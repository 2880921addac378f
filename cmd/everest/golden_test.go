package main

import (
	"bytes"
	"testing"

	"github.com/everest-project/everest/internal/golden"
)

const (
	goldenFrames  = `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`
	goldenSliding = `SELECT TOP 3 WINDOWS OF 60 EVERY 20 FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`
	goldenCross   = `SELECT TOP 3 FRAMES FROM Archie, "Grand-Canal" RANK BY count() LIMIT FRAMES 1200 SEED 3`
	goldenAnd     = `SELECT TOP 8 FRAMES FROM Archie RANK BY count(car) AND count(truck) LIMIT FRAMES 1500 SEED 3`
	goldenStream  = `SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500`
	goldenScript  = goldenFrames + ";\n" + `EXPLAIN ` + goldenSliding + ";\n" + goldenSliding
)

// goldenQueries are independent `everest -query` invocations; explain
// is the -explain flag.
var goldenQueries = []struct {
	name, query string
	explain     bool
}{
	{"frames", goldenFrames, false},
	{"frames-explain-flag", goldenFrames, true},
	{"sliding", goldenSliding, false},
	{"parallel", goldenFrames + ` PARALLEL 2`, false},
	{"explain", `EXPLAIN ` + goldenSliding, false},
	{"explain-parallel", `EXPLAIN ` + goldenFrames + ` PARALLEL 3`, false},
	{"explain-tiny-video", `EXPLAIN SELECT TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 640 SEED 3`, false},
	{"explain-analyze", `EXPLAIN ANALYZE ` + goldenFrames, false},
	{"script", goldenScript, false},
	{"script-explain-flag", goldenScript, true},
	{"cross-video", goldenCross, false},
	{"and-explain-flag", goldenAnd, true},
	{"explain-and", `EXPLAIN ` + goldenAnd, false},
	{"explain-stream", `EXPLAIN ` + goldenStream, false},
	{"stream-unattached", goldenStream, false},
	{"parse-error", `SELECT nonsense`, false},
	{"unknown-dataset", `SELECT TOP 5 FRAMES FROM NoSuchVideo RANK BY count(car)`, false},
	{"analyze-parallel", `EXPLAIN ANALYZE ` + goldenFrames + ` PARALLEL 2`, false},
	{"analyze-multi-unit", `EXPLAIN ANALYZE ` + goldenCross, false},
	{"analyze-stream", `EXPLAIN ANALYZE ` + goldenStream, false},
}

// TestGoldenQueryTranscript pins what `everest -query` prints, byte for
// byte, for every statement kind, a script and the error paths — each
// entry is one process's worth of output (runQuery on a fresh writer).
func TestGoldenQueryTranscript(t *testing.T) {
	var tr golden.Transcript
	for _, c := range goldenQueries {
		var out bytes.Buffer
		err := runQuery(&out, c.query, c.explain)
		input := c.query
		if c.explain {
			input += "   [-explain]"
		}
		tr.Add(c.name, input, out.String(), err)
	}
	tr.Check(t, "testdata/golden_transcript.txt")
}
