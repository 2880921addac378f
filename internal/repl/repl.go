// Package repl implements the interactive EQL shell behind
// `cmd/everest -repl`. It is where the repository's multi-query machinery
// composes into a workflow: the shell is one eql.ScriptSession, so the
// first query against a (dataset, UDF) pair pays Phase 1 once by building
// an ingestion Index, and every later statement — in the same input or a
// later one — runs through a Session over that index, sharing all
// previously revealed oracle labels. Input is a script: `;`-separated
// statements execute as one coordinated plan graph (common sub-plans
// bound once, one serving budget), and an incomplete statement continues
// onto the next line. EXPLAIN statements describe plans without running
// them; EXPLAIN ANALYZE statements let the cost-based planner choose the
// engine knobs, run the chosen plan on the pair's session, and report
// predicted vs actual simulated cost.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"

	everest "github.com/everest-project/everest"
	"github.com/everest-project/everest/internal/eql"
	"github.com/everest-project/everest/internal/video"
)

// REPL holds the shell's state: one ScriptSession whose relations (one
// ingestion index + session per (dataset, frame count, UDF, seed) key)
// are built lazily and persist across inputs.
type REPL struct {
	out io.Writer
	ss  *eql.ScriptSession
}

// New returns an empty shell writing results to out.
func New(out io.Writer) *REPL {
	r := &REPL{out: out, ss: eql.NewScriptSession()}
	r.ss.OnIngestStart = func(dataset, udf string) {
		fmt.Fprintf(r.out, "(ingesting %s for %s — one-off Phase 1)\n", dataset, udf)
	}
	r.ss.OnIngestDone = func(dataset, udf string, ingestMS float64) {
		fmt.Fprintf(r.out, "(ingested in %.0f sim-ms; later queries pay Phase 2 only)\n", ingestMS)
	}
	return r
}

// AttachLive registers a live stream so `SELECT STREAM …` statements can
// compile to follower registrations on it.
func (r *REPL) AttachLive(name string, ls *everest.LiveStream) { r.ss.AttachLive(name, ls) }

// Sessions returns how many (dataset, UDF) sessions the shell has opened.
func (r *REPL) Sessions() int { return len(r.ss.Entries()) }

// Run reads statements from in until EOF or a quit command. Statements
// end at `;` or end of line; an input that stops mid-statement (or
// inside an unterminated string) continues onto the next line, and a
// blank line forces the pending text out. Errors are printed, not fatal
// — a shell keeps going.
func (r *REPL) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	var buf []string
	prompt := func() {
		if len(buf) == 0 {
			fmt.Fprint(r.out, "everest> ")
		} else {
			fmt.Fprint(r.out, "      -> ")
		}
	}
	exec := func(src string) {
		if err := r.ExecLine(src); err != nil {
			fmt.Fprintf(r.out, "error: %v\n", err)
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if len(buf) == 0 {
			switch strings.ToLower(trimmed) {
			case "quit", "exit", `\q`:
				fmt.Fprintln(r.out, "bye")
				return nil
			}
			if trimmed == "" {
				prompt()
				continue
			}
			if isCommand(trimmed) {
				exec(trimmed)
				prompt()
				continue
			}
		}
		if trimmed == "" {
			// A blank line forces the pending statement out as-is.
			src := strings.Join(buf, "\n")
			buf = nil
			exec(src)
			prompt()
			continue
		}
		buf = append(buf, line)
		src := strings.Join(buf, "\n")
		if _, err := eql.ParseScript(src); err != nil {
			var pe *eql.ParseError
			if errors.As(err, &pe) && pe.AtEOF {
				// The statement is incomplete, not wrong: keep reading.
				prompt()
				continue
			}
		}
		buf = nil
		exec(src)
		prompt()
	}
	if len(buf) > 0 {
		exec(strings.Join(buf, "\n"))
	}
	fmt.Fprintln(r.out)
	return sc.Err()
}

// isCommand reports whether a line is a dot-command rather than EQL.
func isCommand(line string) bool {
	switch strings.ToLower(line) {
	case "help", `\h`, "?", "datasets", `\d`, "sessions", `\s`:
		return true
	}
	return false
}

// ExecLine executes one complete shell input: a dot-command (help,
// datasets, sessions) or an EQL script — one statement or several
// separated by `;`, run as one coordinated plan graph on the shell's
// script session.
func (r *REPL) ExecLine(line string) error {
	switch strings.ToLower(strings.TrimSpace(line)) {
	case "help", `\h`, "?":
		r.help()
		return nil
	case "datasets", `\d`:
		r.datasets()
		return nil
	case "sessions", `\s`:
		r.listSessions()
		return nil
	}
	res, err := r.ss.ExecWith(line, eql.ScriptOptions{})
	if res == nil {
		return err
	}
	r.printScript(res)
	return err
}

// printScript renders a script's results. Single-statement inputs print
// exactly as the pre-script shell did; multi-statement inputs add a
// coordination header and per-statement banners.
func (r *REPL) printScript(res *eql.ScriptResult) {
	multi := len(res.Statements) > 1
	if multi {
		fmt.Fprintf(r.out, "(script: %d statements over %d relation(s), %d shared sub-plan unit(s); concurrency %d, coalesce %s, mux %s)\n",
			len(res.Statements), res.Relations, res.SharedUnits,
			res.Concurrency, onOff(res.Coalesce), onOff(res.UseMux))
	}
	for i, sr := range res.Statements {
		if multi {
			fmt.Fprintf(r.out, "[%d] %s\n", i+1, sr.Text)
		}
		switch sr.Stmt.Kind() {
		case eql.KindExplain:
			fmt.Fprint(r.out, sr.Explain)
		case eql.KindAnalyze:
			if sr.Analyze != nil {
				fmt.Fprint(r.out, sr.Analyze.String())
			}
		case eql.KindFollow:
			if len(sr.Followers) > 0 {
				fmt.Fprintf(r.out, "(continuous: %d follower(s) registered on the live stream; deltas accumulate as footage arrives)\n",
					len(sr.Followers))
			}
		case eql.KindScaleOut:
			fmt.Fprintf(r.out, "(scale-out: %d workers)\n", sr.Stmt.Parallel)
			fallthrough
		case eql.KindQuery:
			for _, ur := range sr.Units {
				if ur == nil || ur.Result == nil {
					continue
				}
				if len(sr.Units) > 1 {
					fmt.Fprintf(r.out, "%s rank-by %s:\n", ur.Dataset, ur.Predicate)
				}
				r.printResult(ur.Result, ur.FPS)
			}
			for _, ar := range sr.And {
				fmt.Fprintf(r.out, "AND (%s): %d ids in every predicate's top-K: %v\n",
					ar.Dataset, len(ar.IDs), ar.IDs)
			}
		}
	}
}

func onOff(v bool) string {
	if v {
		return "on"
	}
	return "off"
}

func (r *REPL) printResult(res *everest.Result, fps int) {
	unit := "frame"
	if res.IsWindow {
		unit = "window"
	}
	fmt.Fprintf(r.out, "confidence %.4f (%s bound), %d %ss, cleaned %d, cost %.0f sim-ms\n",
		res.Confidence, res.Bound, len(res.IDs), unit,
		res.EngineStats.Cleaned, res.Clock.TotalMS())
	if fps <= 0 {
		fps = 30
	}
	for i, id := range res.IDs {
		sec := float64(id) / float64(fps)
		if res.IsWindow {
			sec = float64(id*res.WindowStride) / float64(fps)
		}
		fmt.Fprintf(r.out, "  #%-3d %s %-8d t=%8.1fs  score %.2f\n", i+1, unit, id, sec, res.Scores[i])
	}
}

func (r *REPL) help() {
	fmt.Fprint(r.out, `statements:
  SELECT TOP k FRAMES FROM dataset RANK BY udf(arg) [THRESHOLD p] [SAMPLE f] [LIMIT FRAMES n] [SEED s] [PARALLEL w]
  SELECT TOP k WINDOWS OF n [EVERY m] FROM dataset RANK BY udf(arg) [...]
                            SAMPLE f: fraction of a window's frames a confirmation scores
  SELECT STREAM TOP k ... FROM live-stream ...
                            register a continuous query on an attached live stream
  RANK BY udf(a) AND udf(b) per-source AND of the predicates' top-K sets
  FROM a, b                 run the same query over several videos
  EXPLAIN SELECT ...        describe the plan; runs, ingests and registers nothing
  EXPLAIN ANALYZE SELECT ...plan with the cost-based optimizer, run the
                            chosen plan, report predicted vs actual cost
scripts:
  statements separated by ';' execute as one coordinated plan graph:
  statements over the same (dataset, frames, udf, seed) share one
  ingestion and one label cache under a single serving budget, with
  results bit-identical to running them one at a time in order.
  an incomplete statement continues onto the next line.
commands:
  datasets                  list built-in datasets
  sessions                  list open ingestion sessions
  help                      this text
  quit                      leave the shell
the first query on a (dataset, udf) pair ingests it (Phase 1); later
queries reuse the index and every oracle label revealed so far.
`)
}

func (r *REPL) datasets() {
	fmt.Fprintf(r.out, "%-22s %-8s %12s\n", "name", "object", "paper-frames")
	for _, d := range video.Datasets() {
		fmt.Fprintf(r.out, "%-22s %-8s %12d\n", d.Name, d.Config.Class, d.PaperFrames)
	}
}

func (r *REPL) listSessions() {
	entries := r.ss.Entries()
	if len(entries) == 0 {
		fmt.Fprintln(r.out, "no sessions yet")
		return
	}
	for _, e := range entries {
		fmt.Fprintf(r.out, "%s: %d queries, %d cached labels, ingest %.0f sim-ms\n",
			e.Key, e.Queries, e.CachedLabels, e.IngestMS)
	}
}
