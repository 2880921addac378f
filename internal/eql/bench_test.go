package eql

import (
	"fmt"
	"testing"

	"github.com/everest-project/everest/internal/eql/planner"
)

// benchScript is the shape of the repo benchmark's eql_script texts:
// four statements over two relations — a thresholded frame query, a
// window query, a plain EXPLAIN and another frame query — with every
// relation at the given frame count.
func benchScript(frames int) string {
	return fmt.Sprintf(`SELECT TOP 10 FRAMES FROM Archie RANK BY count(car) THRESHOLD 0.95 LIMIT FRAMES %[1]d SEED 1;
SELECT TOP 5 WINDOWS OF 30 FROM "Grand-Canal" RANK BY count(boat) LIMIT FRAMES %[1]d SEED 1;
EXPLAIN SELECT TOP 20 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES %[1]d SEED 1;
SELECT TOP 5 FRAMES FROM "Grand-Canal" RANK BY count(boat) THRESHOLD 0.99 LIMIT FRAMES %[1]d SEED 1`, frames)
}

func parsedBenchScript(tb testing.TB, frames int) *Script {
	tb.Helper()
	s, err := ParseScript(benchScript(frames))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// warmSession returns a session on which every query of the script has
// run until a whole execution scores no new frame: what is left of an
// execution is lex, parse, bind, plan and warm reads of the label cache.
func warmSession(tb testing.TB, script string) *ScriptSession {
	tb.Helper()
	ss := NewScriptSession()
	for round := 0; ; round++ {
		res, err := ss.Exec(script)
		if err != nil {
			tb.Fatal(err)
		}
		if res.OracleCalls == 0 {
			return ss
		}
		if round == 20 {
			tb.Fatal("label caches still growing after 20 executions")
		}
	}
}

func BenchmarkParseScript(b *testing.B) {
	src := benchScript(1500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseScript(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBindScript binds the same script over short and long videos:
// binding describes its sources and reads no frame, so the two cost the
// same.
func BenchmarkBindScript(b *testing.B) {
	for _, frames := range []int{1500, 150000} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			s := parsedBenchScript(b, frames)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BindScript(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChooseSet is the joint planning every script execution does.
func BenchmarkChooseSet(b *testing.B) {
	sp, err := BindScript(parsedBenchScript(b, 1500))
	if err != nil {
		b.Fatal(err)
	}
	var runnable []*Unit
	for _, u := range sp.Units {
		if u.Kind == KindQuery {
			runnable = append(runnable, u)
		}
	}
	in := setInput(sp, runnable)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if set := planner.ChooseSet(in); len(set.Units) != len(runnable) {
			b.Fatal("units went missing")
		}
	}
}

// BenchmarkExecWarm is one whole warm execution of the script on a
// persistent session — the repo benchmark's eql_script op.
func BenchmarkExecWarm(b *testing.B) {
	script := benchScript(1500)
	ss := warmSession(b, script)
	opt := ScriptOptions{Procs: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ss.ExecWith(script, opt); err != nil {
			b.Fatal(err)
		}
	}
}
