package eql

import (
	"errors"
	"testing"
)

// FuzzParseEQL hammers the whole language front end with two
// invariants:
//
//  1. lex→parse never panics, and every rejection is a *ParseError
//     whose position lies inside the source — the REPL and script
//     surfaces render Pos unconditionally.
//  2. parse→print→reparse is a fixed point: an accepted script's
//     canonical rendering reparses, and reparsing it prints the same
//     canonical text (so the printer emits exactly the language the
//     parser accepts — quoting, float formatting, option order and
//     all), and every statement keeps its Kind across the round trip.
func FuzzParseEQL(f *testing.F) {
	seeds := []string{
		``,
		`SELECT TOP 50 FRAMES FROM "Taipei-bus" RANK BY count(car) THRESHOLD 0.9`,
		`select top 10 windows of 150 every 30 from Archie rank by count() sample 0.2 seed 7`,
		`SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) AND count(bus) LIMIT FRAMES 4000`,
		`SELECT TOP 5 FRAMES FROM Archie, "Grand-Canal" RANK BY count()`,
		`SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car)`,
		`EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) SEED 3`,
		`SELECT TOP 5 FRAMES FROM a RANK BY count(car); SELECT TOP 3 WINDOWS OF 30 FROM a RANK BY count(car);`,
		`SELECT TOP 5 FRAMES FROM 'single"quote' RANK BY "weird name"("the arg") PARALLEL 2`,
		`;;; SELECT TOP 1 FRAMES FROM a RANK BY tailgate ;;`,
		`SELECT TOP 5 CLIPS FROM a RANK BY count`,
		`SELECT TOP 5 FRAMES FROM "unclosed RANK BY count`,
		`SELECT TOP 9999999999999999999 FRAMES FROM a RANK BY count`,
		`SELECT TOP 5 FRAMES FROM a RANK BY count(car) THRESHOLD 0.000000001`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseScript(src)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("ParseScript(%q) error %v (%T) is not a *ParseError", src, err, err)
			}
			if pe.Pos < 0 || pe.Pos > len(src) {
				t.Fatalf("ParseScript(%q) error position %d outside source (len %d)", src, pe.Pos, len(src))
			}
			return
		}
		printed := s.String()
		s2, err := ParseScript(printed)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", printed, src, err)
		}
		if len(s2.Statements) != len(s.Statements) {
			t.Fatalf("canonical form %q reparses to %d statements, want %d", printed, len(s2.Statements), len(s.Statements))
		}
		if got := s2.String(); got != printed {
			t.Fatalf("canonical form is not a fixed point:\nsource %q\n first %q\nsecond %q", src, printed, got)
		}
		for i, st := range s.Statements {
			if got, want := s2.Statements[i].Kind(), st.Kind(); got != want {
				t.Fatalf("statement %d of %q changes kind across print→parse: %d, was %d", i, src, got, want)
			}
		}
	})
}
