package eql

import (
	"fmt"
	"strings"
	"testing"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/vision"
)

// TestKindTable walks every modifier combination — EXPLAIN [ANALYZE] ×
// STREAM × PARALLEL × single/cross-video/AND — and checks the kind
// precedence (EXPLAIN over everything, then ANALYZE, STREAM, PARALLEL),
// that print→parse preserves it, and what each kind binds to: the
// combinations the binder rejects, and for the rest units that carry
// the kind and their slot and join a relation exactly when the
// statement (or, explained, the statement under it) would run on a
// session.
func TestKindTable(t *testing.T) {
	prefixes := []string{"", "EXPLAIN ", "EXPLAIN ANALYZE "}
	shapes := []struct {
		from, rankBy string
		units        int
	}{
		{`Archie`, `count(car)`, 1},
		{`Archie, "Grand-Canal"`, `count()`, 2},
		{`Archie`, `count(car) AND count(truck)`, 2},
	}
	for _, prefix := range prefixes {
		for _, stream := range []bool{false, true} {
			for _, parallel := range []int{0, 1, 3} {
				for _, shape := range shapes {
					src := prefix + "SELECT "
					if stream {
						src += "STREAM "
					}
					src += fmt.Sprintf("TOP 3 FRAMES FROM %s RANK BY %s LIMIT FRAMES 1200", shape.from, shape.rankBy)
					if parallel > 0 {
						src += fmt.Sprintf(" PARALLEL %d", parallel)
					}

					want := KindQuery
					switch {
					case prefix == "EXPLAIN ":
						want = KindExplain
					case prefix == "EXPLAIN ANALYZE ":
						want = KindAnalyze
					case stream:
						want = KindFollow
					case parallel > 1:
						want = KindScaleOut
					}
					q, err := Parse(src)
					if err != nil {
						t.Fatalf("Parse(%q): %v", src, err)
					}
					if got := q.Kind(); got != want {
						t.Fatalf("%q: kind %d, want %d", src, got, want)
					}
					q2, err := Parse(q.String())
					if err != nil || q2.Kind() != want {
						t.Fatalf("%q: kind after print→parse %v (err %v), want %d", src, q2, err, want)
					}

					rejected := stream && parallel > 1 ||
						want == KindAnalyze && (stream || parallel > 1 || shape.units > 1)
					units, err := bindUnits(t, src)
					if rejected {
						if err == nil {
							t.Fatalf("%q: BindScript must reject it", src)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%q: %v", src, err)
					}
					if len(units) != shape.units {
						t.Fatalf("%q: %d units, want %d", src, len(units), shape.units)
					}
					onSession := !stream && parallel <= 1
					for i, u := range units {
						if u.Kind != want || u.Slot != i || (u.Rel != nil) != onSession {
							t.Fatalf("%q unit %d: kind %d slot %d relation %v, want kind %d slot %d relation %v",
								src, i, u.Kind, u.Slot, u.Rel != nil, want, i, onSession)
						}
					}
				}
			}
		}
	}
}

// TestExplainHasNoEffect: executing an EXPLAIN through a session renders
// the plan and touches nothing — an explained PARALLEL statement does
// not run the scale-out query, an explained STREAM statement registers
// no follower on an attached live stream and needs none attached.
func TestExplainHasNoEffect(t *testing.T) {
	ss := NewScriptSession()
	res, err := ss.Exec(`EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500 PARALLEL 3`)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Statements[0]
	if !strings.Contains(sr.Explain, "scale-out 3 workers") {
		t.Fatalf("explained PARALLEL statement must still print its scale-out line:\n%s", sr.Explain)
	}
	if len(sr.Units) != 0 || res.OracleCalls != 0 || res.TotalMS != 0 || len(ss.Entries()) != 0 {
		t.Fatalf("EXPLAIN … PARALLEL ran: %d unit results, %d oracle calls, %.0f sim-ms, %d entries",
			len(sr.Units), res.OracleCalls, res.TotalMS, len(ss.Entries()))
	}

	const stream = `EXPLAIN SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500`
	explainsOnly := func(when string) {
		t.Helper()
		res, err := ss.Exec(stream)
		if err != nil {
			t.Fatalf("%s: EXPLAIN SELECT STREAM must explain, got %v", when, err)
		}
		sr := res.Statements[0]
		if !strings.Contains(sr.Explain, "continuous query") || len(sr.Followers) != 0 {
			t.Fatalf("%s: explain %q, %d followers registered", when, sr.Explain, len(sr.Followers))
		}
	}
	explainsOnly("no live stream attached")

	vsrc, _, err := bindSource(SourceRef{Name: "Archie"}, 1500)
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
	explainsOnly("live stream attached")
}

// TestInScriptExplainAgreesWithBudget: an EXPLAIN inside a script is
// planned at the script's own concurrency, so its serving reasons and
// the budget line under them say the same thing.
func TestInScriptExplainAgreesWithBudget(t *testing.T) {
	ss := NewScriptSession()
	for _, c := range []struct {
		script            string
		stmt, concurrency int
	}{
		{"EXPLAIN " + scriptA, 0, 0},
		{"EXPLAIN " + scriptA + ";" + scriptB, 0, 1},
		{scriptA + ";" + scriptB + "; EXPLAIN " + scriptC + ";" + scriptA, 2, 3},
	} {
		res, err := ss.Exec(c.script)
		if err != nil {
			t.Fatal(err)
		}
		text := res.Statements[c.stmt].Explain
		state := "off"
		if c.concurrency > 1 {
			state = "on"
		}
		for _, want := range []string{
			"- coalesce " + state,
			"- mux " + state,
			fmt.Sprintf("one budget: concurrency %d, coalesce %s, mux %s\n", c.concurrency, state, state),
		} {
			if !strings.Contains(text, want) {
				t.Fatalf("concurrency %d: in-script EXPLAIN missing %q:\n%s", c.concurrency, want, text)
			}
		}
	}
}
