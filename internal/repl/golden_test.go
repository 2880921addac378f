package repl

import (
	"bytes"
	"testing"

	"github.com/everest-project/everest/internal/golden"
)

const (
	goldenFrames    = `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`
	goldenSliding   = `SELECT TOP 3 WINDOWS OF 60 EVERY 20 FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`
	goldenThreshold = `SELECT TOP 4 FRAMES FROM Archie RANK BY count(car) THRESHOLD 0.95 LIMIT FRAMES 1500 SEED 3`
	goldenCanal     = `SELECT TOP 3 FRAMES FROM "Grand-Canal" RANK BY count(boat) LIMIT FRAMES 1200 SEED 3`
	goldenCross     = `SELECT TOP 3 FRAMES FROM Archie, "Grand-Canal" RANK BY count() LIMIT FRAMES 1200 SEED 3`
	goldenTiny      = `SELECT TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 640 SEED 3`
	goldenStream    = `SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500`
)

// goldenInputs is one shell session, in order: every input runs on the
// same REPL, so later entries see the sessions and labels earlier ones
// left behind. (`help` is left to TestCommands: it is documentation.)
var goldenInputs = []struct{ name, line string }{
	{"datasets", `datasets`},
	{"sessions-empty", `sessions`},
	{"frames-cold", goldenFrames},
	{"sliding-warm", goldenSliding},
	{"frames-repeat", goldenFrames},
	{"explain", `EXPLAIN ` + goldenThreshold},
	{"explain-analyze", `EXPLAIN ANALYZE ` + goldenThreshold},
	{"parallel", goldenFrames + ` PARALLEL 2`},
	{"explain-parallel", `EXPLAIN ` + goldenFrames + ` PARALLEL 3`},
	{"cross-video", goldenCross},
	{"and", `SELECT TOP 8 FRAMES FROM Archie RANK BY count(car) AND count(truck) LIMIT FRAMES 1500 SEED 3`},
	{"tiny-video", goldenTiny},
	{"explain-tiny-video", `EXPLAIN ` + goldenTiny},
	{"script", goldenFrames + ";\n" + `EXPLAIN ` + goldenSliding + ";\n" +
		`EXPLAIN ANALYZE ` + goldenCanal + ";\n" + goldenThreshold},
	{"script-explain-multi-unit", `EXPLAIN ` + goldenCross + "; " + goldenFrames},
	{"script-parallel", goldenCanal + "; " + goldenFrames + ` PARALLEL 2`},
	{"explain-stream", `EXPLAIN ` + goldenStream},
	{"stream-unattached", goldenStream},
	{"parse-error", `SELECT nonsense`},
	{"parse-error-in-script", goldenFrames + `; SELECT TOP bad`},
	{"unknown-dataset", `SELECT TOP 5 FRAMES FROM NoSuchVideo RANK BY count(car)`},
	{"wrong-udf", `SELECT TOP 5 FRAMES FROM Archie RANK BY tailgate() LIMIT FRAMES 1500`},
	{"analyze-parallel", `EXPLAIN ANALYZE ` + goldenFrames + ` PARALLEL 2`},
	{"analyze-multi-unit", `EXPLAIN ANALYZE ` + goldenCross},
	{"stream-parallel", goldenStream + ` PARALLEL 2`},
	{"sessions", `sessions`},
}

// TestGoldenTranscript pins what the shell prints, byte for byte, over
// one session that exercises every statement kind, a coordinated script
// and the error paths. Answers and simulated charges are deterministic,
// so any change to the transcript is a behaviour change the PR must
// name.
func TestGoldenTranscript(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	var tr golden.Transcript
	for _, in := range goldenInputs {
		out.Reset()
		err := r.ExecLine(in.line)
		tr.Add(in.name, in.line, out.String(), err)
	}
	tr.Check(t, "testdata/golden_transcript.txt")
}
