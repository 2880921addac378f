package repl

import (
	"bytes"
	"strings"
	"testing"
)

func TestCommands(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	for _, cmd := range []string{"help", "datasets", "sessions"} {
		if err := r.ExecLine(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
	got := out.String()
	for _, want := range []string{"SELECT TOP", "Taipei-bus", "no sessions yet"} {
		if !strings.Contains(got, want) {
			t.Fatalf("command output missing %q:\n%s", want, got)
		}
	}
}

func TestExplainStatement(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	err := r.ExecLine("EXPLAIN SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 1500")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "plan: everest top-5") {
		t.Fatalf("explain output wrong:\n%s", out.String())
	}
	if r.Sessions() != 0 {
		t.Fatal("EXPLAIN must not ingest anything")
	}
}

func TestExplainAnalyzeStatementRunsOnSession(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	err := r.ExecLine("EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 2000 SEED 4")
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"ingesting", "chosen knobs", "predicted vs actual", "batch-size"} {
		if !strings.Contains(got, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, got)
		}
	}
	if r.Sessions() != 1 {
		t.Fatalf("%d sessions after EXPLAIN ANALYZE, want 1 — it must run on the shell session", r.Sessions())
	}
	// A later plain query on the same pair reuses the index and the
	// labels the analyzed run revealed.
	out.Reset()
	if err := r.ExecLine("SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 2000 SEED 4"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "ingesting") {
		t.Fatalf("query after EXPLAIN ANALYZE must reuse the session:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cleaned 0") {
		t.Fatalf("repeat of the analyzed query should clean nothing:\n%s", out.String())
	}
}

func TestExplainAnalyzeRejectsParallel(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	err := r.ExecLine("EXPLAIN ANALYZE SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) PARALLEL 2 LIMIT FRAMES 2000")
	if err == nil || !strings.Contains(err.Error(), "PARALLEL") {
		t.Fatalf("PARALLEL under EXPLAIN ANALYZE should be rejected, got %v", err)
	}
	if r.Sessions() != 0 {
		t.Fatal("rejected statement must not ingest")
	}
}

func TestParseAndBindErrorsAreReturned(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	if err := r.ExecLine("SELECT nonsense"); err == nil {
		t.Fatal("parse error must surface")
	}
	if err := r.ExecLine("SELECT TOP 5 FRAMES FROM NoSuchVideo RANK BY count(car)"); err == nil {
		t.Fatal("bind error must surface")
	}
	if r.Sessions() != 0 {
		t.Fatal("failed statements must not leave sessions behind")
	}
}

func TestQueriesShareOneSession(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	stmt := "SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 2000 SEED 4"
	if err := r.ExecLine(stmt); err != nil {
		t.Fatal(err)
	}
	if r.Sessions() != 1 {
		t.Fatalf("%d sessions after first query, want 1", r.Sessions())
	}
	first := out.String()
	if !strings.Contains(first, "ingesting") {
		t.Fatalf("first query should announce ingestion:\n%s", first)
	}
	out.Reset()
	// The identical query again: same session, no new ingestion, zero
	// cleaning (the label cache covers every contender).
	if err := r.ExecLine(stmt); err != nil {
		t.Fatal(err)
	}
	second := out.String()
	if strings.Contains(second, "ingesting") {
		t.Fatalf("second query must reuse the session:\n%s", second)
	}
	if !strings.Contains(second, "cleaned 0") {
		t.Fatalf("repeat query should clean nothing:\n%s", second)
	}
	if r.Sessions() != 1 {
		t.Fatalf("%d sessions after repeat, want 1", r.Sessions())
	}
	out.Reset()
	if err := r.ExecLine("sessions"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 queries") {
		t.Fatalf("session listing wrong:\n%s", out.String())
	}
}

func TestRunLoopQuitAndErrorsKeepGoing(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	in := strings.NewReader("help\nSELECT garbage\nquit\n")
	if err := r.Run(in); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "error:") {
		t.Fatalf("shell should print statement errors and continue:\n%s", got)
	}
	if !strings.Contains(got, "bye") {
		t.Fatalf("quit should end the shell politely:\n%s", got)
	}
}

func TestRunLoopEOF(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	if err := r.Run(strings.NewReader("datasets\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Archie") {
		t.Fatal("dataset listing missing")
	}
}

func TestScriptStatementOnOneLine(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	err := r.ExecLine("SELECT TOP 5 FRAMES FROM Archie RANK BY count(car) LIMIT FRAMES 3000 SEED 3; " +
		"SELECT TOP 3 WINDOWS OF 30 FROM Archie RANK BY count(car) LIMIT FRAMES 3000 SEED 3")
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"script: 2 statements over 1 relation(s), 1 shared sub-plan unit(s)",
		"[1] SELECT TOP 5 FRAMES",
		"[2] SELECT TOP 3 WINDOWS OF 30",
		"frames, cleaned",
		"windows, cleaned",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("script output missing %q:\n%s", want, got)
		}
	}
	if r.Sessions() != 1 {
		t.Fatalf("%d sessions after a shared-relation script, want 1", r.Sessions())
	}
	// The shared ingest is announced exactly once.
	if strings.Count(got, "ingesting") != 1 {
		t.Fatalf("shared relation must ingest once:\n%s", got)
	}
}

// TestRunLoopMultiLineContinuation: an incomplete statement keeps
// buffering across lines until the parser stops reporting
// end-of-input, then the whole buffer executes as one script.
func TestRunLoopMultiLineContinuation(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	in := strings.NewReader(strings.Join([]string{
		"SELECT TOP 5 FRAMES FROM Archie",
		"RANK BY count(car) LIMIT FRAMES",
		"3000 SEED 3",
		"quit",
	}, "\n") + "\n")
	if err := r.Run(in); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Contains(got, "error:") {
		t.Fatalf("continuation lines must not surface as errors:\n%s", got)
	}
	if !strings.Contains(got, "5 frames, cleaned") {
		t.Fatalf("continued statement never ran:\n%s", got)
	}
	if r.Sessions() != 1 {
		t.Fatalf("%d sessions after the continued statement, want 1", r.Sessions())
	}
}

// TestRunLoopBlankLineFlushesBuffer: a blank line forces the pending
// buffer through the parser, so a genuinely broken statement errors
// out instead of trapping the shell in continuation mode.
func TestRunLoopBlankLineFlushesBuffer(t *testing.T) {
	var out bytes.Buffer
	r := New(&out)
	in := strings.NewReader("SELECT TOP 5 FRAMES FROM Archie\n\nquit\n")
	if err := r.Run(in); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "error:") {
		t.Fatalf("force-flushed incomplete statement should error:\n%s", got)
	}
	if !strings.Contains(got, "bye") {
		t.Fatalf("shell must keep going after the flush error:\n%s", got)
	}
	if r.Sessions() != 0 {
		t.Fatal("failed statement must not ingest")
	}
}
