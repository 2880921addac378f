package eql

import (
	"errors"
	"strings"
	"testing"
)

func TestParseFrameQuery(t *testing.T) {
	q, err := Parse(`SELECT TOP 50 FRAMES FROM "Taipei-bus" RANK BY count(car) THRESHOLD 0.9`)
	if err != nil {
		t.Fatal(err)
	}
	if q.K != 50 || q.Window != 0 || q.Sources[0].Name != "Taipei-bus" {
		t.Fatalf("parsed %+v", q)
	}
	if p := q.Predicates[0]; p.UDF != "count" || p.Arg != "car" || q.Threshold != 0.9 {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseWindowQuery(t *testing.T) {
	q, err := Parse(`select top 10 windows of 150 from Archie rank by count() threshold 0.95 sample 0.2 seed 7`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Window != 150 || q.K != 10 || q.SampleFrac != 0.2 || q.Seed != 7 {
		t.Fatalf("parsed %+v", q)
	}
	if arg := q.Predicates[0].Arg; arg != "" {
		t.Fatalf("empty arg expected, got %q", arg)
	}
}

func TestParseLimitFrames(t *testing.T) {
	q, err := Parse(`SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 4000`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Frames != 4000 {
		t.Fatalf("parsed %+v", q)
	}
}

func TestParseCaseInsensitiveKeywords(t *testing.T) {
	if _, err := Parse(`SeLeCt ToP 3 fRaMeS fRoM Archie RaNk By count(car)`); err != nil {
		t.Fatal(err)
	}
}

// TestParseGrammar covers every grammar clause through the canonical
// printer: each accepted source must render to the expected canonical
// form, and the canonical form must be a fixed point of parse∘print —
// the same invariant FuzzParseEQL hammers.
func TestParseGrammar(t *testing.T) {
	cases := []struct {
		name, src, canonical string
	}{
		{"frames-threshold",
			`SELECT TOP 50 FRAMES FROM "Taipei-bus" RANK BY count(car) THRESHOLD 0.9`,
			`SELECT TOP 50 FRAMES FROM "Taipei-bus" RANK BY count("car") THRESHOLD 0.9`},
		{"windows-every-sample-seed",
			`select top 10 windows of 150 every 30 from Archie rank by count() threshold 0.95 sample 0.2 seed 7`,
			`SELECT TOP 10 WINDOWS OF 150 EVERY 30 FROM "Archie" RANK BY count() THRESHOLD 0.95 SAMPLE 0.2 SEED 7`},
		{"tumbling-windows",
			`SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car)`,
			`SELECT TOP 3 WINDOWS OF 30 FROM "Archie" RANK BY count("car")`},
		{"limit-frames-parallel",
			`SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 4000 PARALLEL 4`,
			`SELECT TOP 5 FRAMES FROM "Archie" RANK BY count("car") LIMIT FRAMES 4000 PARALLEL 4`},
		{"and-predicates",
			`SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) AND count(bus)`,
			`SELECT TOP 5 FRAMES FROM "Archie" RANK BY count("car") AND count("bus")`},
		{"cross-video",
			`SELECT TOP 5 FRAMES FROM Archie, "Grand-Canal" RANK BY count()`,
			`SELECT TOP 5 FRAMES FROM "Archie", "Grand-Canal" RANK BY count()`},
		{"stream",
			`SELECT STREAM TOP 3 FRAMES FROM Archie RANK BY count(car)`,
			`SELECT STREAM TOP 3 FRAMES FROM "Archie" RANK BY count("car")`},
		{"explain",
			`EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car)`,
			`EXPLAIN SELECT TOP 5 FRAMES FROM "Archie" RANK BY count("car")`},
		{"explain-analyze",
			`explain analyze select top 5 frames from Archie rank by count(car)`,
			`EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM "Archie" RANK BY count("car")`},
		{"bare-predicate",
			`SELECT TOP 5 FRAMES FROM Dashcam-California RANK BY tailgate`,
			`SELECT TOP 5 FRAMES FROM "Dashcam-California" RANK BY tailgate()`},
		{"single-quoted-name",
			`SELECT TOP 5 FRAMES FROM 'Grand-Canal' RANK BY count()`,
			`SELECT TOP 5 FRAMES FROM "Grand-Canal" RANK BY count()`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(c.src)
			if err != nil {
				t.Fatalf("Parse(%q): %v", c.src, err)
			}
			if got := q.String(); got != c.canonical {
				t.Fatalf("canonical form of %q:\n got %q\nwant %q", c.src, got, c.canonical)
			}
			q2, err := Parse(c.canonical)
			if err != nil {
				t.Fatalf("reparse of canonical %q: %v", c.canonical, err)
			}
			if got := q2.String(); got != c.canonical {
				t.Fatalf("canonical form is not a fixed point:\n got %q\nwant %q", got, c.canonical)
			}
		})
	}
}

// TestParseErrors locks the rejection cases: the message, the reported
// byte position (anchored by a unique marker substring in the source;
// an empty marker means end-of-input), and the AtEOF incomplete-
// statement signal the REPL's continuation keys on.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		src, want string
		marker    string // error anchors at strings.Index(src, marker); "" = len(src)
		atEOF     bool
	}{
		{``, "expected SELECT", "", true},
		{`SELECT 5`, "expected TOP", "5", false},
		{`SELECT TOP x FRAMES FROM a RANK BY count`, "expected K", "x", false},
		{`SELECT TOP 0 FRAMES FROM a RANK BY count`, "must be positive", "0 FRAMES", false},
		{`SELECT TOP 5 CLIPS FROM a RANK BY count`, "expected FRAMES or WINDOWS", "CLIPS", false},
		{`SELECT TOP 5 WINDOWS 30 FROM a RANK BY count`, "expected OF", "30", false},
		{`SELECT TOP 5 WINDOWS OF 0 FROM a RANK BY count`, "must be positive", "0 FROM", false},
		{`SELECT TOP 5 WINDOWS OF 30 EVERY 0 FROM a RANK BY count`, "EVERY 0 must be positive", "0 FROM", false},
		{`SELECT TOP 5 FRAMES FROM a ORDER BY count`, "expected RANK", "ORDER", false},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car) THRESHOLD 1.5`, "must be in (0,1]", "1.5", false},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car) SAMPLE 0`, "must be in (0,1]", "0", false},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car) PARALLEL 0`, "PARALLEL 0 must be positive", "0", false},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car) garbage`, "unexpected trailing", "garbage", false},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car) SEED x`, "expected seed", "x", false},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car`, "expected )", "", true},
		{`SELECT TOP 5 FRAMES FROM "unclosed RANK BY count`, "unterminated string", `"unclosed`, true},
		{`SELECT TOP 5`, "expected FRAMES or WINDOWS", "", true},
		{`SELECT TOP 5 FRAMES FROM a RANK BY`, "expected ranking function", "", true},
		{`SELECT TOP 5 FRAMES FROM Archie,`, "expected dataset name", "", true},
		{`SELECT TOP 5 FRAMES FROM a RANK BY count(car) AND`, "expected ranking function", "", true},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Fatalf("Parse(%q) should fail", c.src)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("Parse(%q) error %q, want substring %q", c.src, err, c.want)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("Parse(%q) error %T is not a *ParseError", c.src, err)
		}
		wantPos := len(c.src)
		if c.marker != "" {
			wantPos = strings.Index(c.src, c.marker)
		}
		if pe.Pos != wantPos {
			t.Fatalf("Parse(%q) error at position %d, want %d (%q)", c.src, pe.Pos, wantPos, c.marker)
		}
		if pe.AtEOF != c.atEOF {
			t.Fatalf("Parse(%q) AtEOF=%v, want %v", c.src, pe.AtEOF, c.atEOF)
		}
	}
}

// TestParseScript covers the script layer: `;`-separated statements,
// stray separators, positioned errors in later statements, and the
// script-level canonical form.
func TestParseScript(t *testing.T) {
	src := `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car);
		; SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car) ;`
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Statements) != 2 {
		t.Fatalf("parsed %d statements, want 2", len(s.Statements))
	}
	if s.Statements[1].Window != 30 {
		t.Fatalf("second statement wrong: %+v", s.Statements[1])
	}
	want := "SELECT TOP 5 FRAMES FROM \"Archie\" RANK BY count(\"car\");\n" +
		"SELECT TOP 3 WINDOWS OF 30 FROM \"Archie\" RANK BY count(\"car\")"
	if got := s.String(); got != want {
		t.Fatalf("script canonical form:\n got %q\nwant %q", got, want)
	}

	// An error in a later statement reports its position, not the start.
	bad := `SELECT TOP 5 FRAMES FROM a RANK BY count(car); SELECT TOP bad`
	_, err = ParseScript(bad)
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("script error %v (%T), want *ParseError", err, err)
	}
	if want := strings.Index(bad, "bad"); pe.Pos != want {
		t.Fatalf("script error at %d, want %d", pe.Pos, want)
	}

	// Parse (single-statement API) refuses scripts.
	if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "use ParseScript") {
		t.Fatalf("Parse of a 2-statement script: %v", err)
	}
}

// TestStatementPositions checks the AST's source anchors: statements and
// their sources/predicates carry the byte offsets later layers (binder
// errors, REPL messages) report.
func TestStatementPositions(t *testing.T) {
	src := `SELECT TOP 5 FRAMES FROM Archie RANK BY count(car); SELECT TOP 3 FRAMES FROM "Grand-Canal" RANK BY count(boat)`
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	second := s.Statements[1]
	if want := strings.LastIndex(src, "SELECT"); second.Pos != want {
		t.Fatalf("second statement at %d, want %d", second.Pos, want)
	}
	if want := strings.Index(src, `"Grand-Canal"`); second.Sources[0].Pos != want {
		t.Fatalf("source at %d, want %d", second.Sources[0].Pos, want)
	}
	if want := strings.Index(src, "count(boat)"); second.Predicates[0].Pos != want {
		t.Fatalf("predicate at %d, want %d", second.Predicates[0].Pos, want)
	}
}

// bindUnits parses and binds src through the one binder and returns
// the script's units.
func bindUnits(t *testing.T, src string) ([]*Unit, error) {
	t.Helper()
	script, err := ParseScript(src)
	if err != nil {
		t.Fatalf("ParseScript(%q): %v", src, err)
	}
	sp, err := BindScript(script)
	if err != nil {
		return nil, err
	}
	return sp.Units, nil
}

func TestBindValidation(t *testing.T) {
	cases := []string{
		`SELECT TOP 5 FRAMES FROM "no-such-video" RANK BY count(car)`,
		`SELECT TOP 5 FRAMES FROM Archie RANK BY frobnicate()`,
		`SELECT TOP 5 FRAMES FROM Archie RANK BY tailgate()`,  // not a dashcam
		`SELECT TOP 5 FRAMES FROM Archie RANK BY sentiment()`, // not a street
	}
	for _, src := range cases {
		if _, err := bindUnits(t, src); err == nil {
			t.Fatalf("BindScript(%q) should fail", src)
		}
	}
}

func TestBindDefaultsClassToDatasetTarget(t *testing.T) {
	units, err := bindUnits(t, `SELECT TOP 5 FRAMES FROM "Grand-Canal" RANK BY count() LIMIT FRAMES 2000`)
	if err != nil {
		t.Fatal(err)
	}
	if got := units[0].UDF.Name(); got != "count(boat)" {
		t.Fatalf("bound UDF %q, want count(boat)", got)
	}
}

func TestExecuteEndToEnd(t *testing.T) {
	res, plan, err := Execute(
		`SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) THRESHOLD 0.9 LIMIT FRAMES 1500 SEED 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 5 {
		t.Fatalf("result size %d", len(res.IDs))
	}
	if res.Confidence < 0.9 {
		t.Fatalf("confidence %v", res.Confidence)
	}
	if plan.Source.NumFrames() != 1500 {
		t.Fatalf("frame limit not applied: %d", plan.Source.NumFrames())
	}
	// Certain-result condition flows through the language layer.
	for i, id := range res.IDs {
		if int(res.Scores[i]) != plan.Source.TrueCountFast(id) {
			t.Fatalf("frame %d score %v, truth %d", id, res.Scores[i], plan.Source.TrueCountFast(id))
		}
	}
}

func TestExecuteWindowQuery(t *testing.T) {
	res, _, err := Execute(
		`SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car) LIMIT FRAMES 1500 SEED 3`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.IsWindow || len(res.IDs) != 3 {
		t.Fatalf("window result wrong: %+v", res)
	}
}
