package eql

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseError is the positioned error every lexer and parser failure
// surfaces: Pos is the byte offset into the source script where the
// offending token starts, so multi-statement scripts report where, not
// just what.
type ParseError struct {
	// Pos is the byte offset of the offending token in the source.
	Pos int
	// AtEOF marks an error caused by the source ending too early (an
	// incomplete statement or an unterminated string) — the REPL's
	// multi-line continuation signal: more input may complete the
	// statement, whereas a mid-source error never can.
	AtEOF bool
	// Msg is the human-readable description.
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("eql: position %d: %s", e.Pos, e.Msg)
}

// Script is a parsed EQL script: one or more statements separated by
// semicolons, compiled and executed as one coordinated set (see
// BindScript and ScriptSession).
type Script struct {
	Statements []*Statement
}

// Statement is the AST of one EQL statement.
//
//	[EXPLAIN [ANALYZE]] SELECT [STREAM] TOP k
//	  (FRAMES | WINDOWS OF n [EVERY m])
//	  FROM source ("," source)*
//	  RANK BY predicate (AND predicate)*
//	  [THRESHOLD p] [SAMPLE f] [LIMIT FRAMES n] [SEED s] [PARALLEL w]
//
// A statement with several sources (cross-video) or several predicates
// (AND) compiles to one engine plan per (source, predicate) pair; the
// AND combination is computed over the per-predicate answers (see
// StatementResult.And).
type Statement struct {
	// Pos is the byte offset of the statement's first token.
	Pos int
	// Explain marks an EXPLAIN statement: bind and describe, do not run.
	Explain bool
	// Analyze marks an EXPLAIN ANALYZE statement: plan, run the chosen
	// plan, and report predicted vs actual cost. Implies Explain.
	Analyze bool
	// Stream marks a continuous query (SELECT STREAM …): compiled to a
	// follower registration on a live stream instead of a batch run.
	Stream bool
	// K is the result size.
	K int
	// Window is the window length in frames; 0 for frame queries.
	Window int
	// Stride is the window start offset (WINDOWS OF n EVERY m); 0 means
	// Window (tumbling).
	Stride int
	// Parallel is the scale-out worker count; 0 or 1 means serial.
	Parallel int
	// Sources are the video sources (FROM a, b); at least one.
	Sources []SourceRef
	// Predicates are the ranking functions (RANK BY p AND q); at least
	// one.
	Predicates []Predicate
	// Threshold is the probabilistic guarantee; 0 means the 0.9 default.
	Threshold float64
	// SampleFrac overrides window confirmation sampling; 0 means default.
	SampleFrac float64
	// Frames overrides the dataset's frame count; 0 means default.
	Frames int
	// Seed fixes the query's randomness; 0 means default.
	Seed uint64
}

// SourceRef is one FROM operand with its source position.
type SourceRef struct {
	Pos  int
	Name string
}

// Predicate is one RANK BY operand: a ranking function application.
type Predicate struct {
	Pos int
	// UDF is the function name, lowercased: count, tailgate or sentiment.
	UDF string
	// Arg is the argument (the class for count); "" when absent.
	Arg string
}

// String renders the predicate in canonical form.
func (p Predicate) String() string {
	return fmt.Sprintf("%s(%s)", printName(p.UDF), printArg(p.Arg))
}

// Kind is what executing a statement means. It is decided once, by
// Statement.Kind, and carried on every Unit the statement binds to; the
// binder, the executor, the REPL's printer and cmd/everest's -query
// dispatch switch on it instead of each re-deriving it from the
// modifiers (DESIGN.md "Multi-statement EQL" has the full table).
type Kind int

const (
	// KindQuery: a batch top-K query; its units join shared relations and
	// run, in statement order, as coalesced groups on their sessions.
	KindQuery Kind = iota
	// KindScaleOut: PARALLEL w, w > 1; each unit runs standalone through
	// RunParallel, outside the session machinery.
	KindScaleOut
	// KindFollow: SELECT STREAM; each unit registers a follower on the
	// attached live stream its source names.
	KindFollow
	// KindAnalyze: EXPLAIN ANALYZE; the one unit is planned by the cost
	// model, run at its position on its relation's session, and reported.
	KindAnalyze
	// KindExplain: EXPLAIN of anything; binds as the statement under it,
	// is rendered, and has no effect — nothing ingests, runs or registers.
	KindExplain
)

// Kind classifies the statement — a pure function of the AST in which
// the EXPLAIN [ANALYZE] prefix wins over every other modifier, then
// STREAM, then PARALLEL.
func (s *Statement) Kind() Kind {
	switch {
	case s.Analyze:
		return KindAnalyze
	case s.Explain:
		return KindExplain
	case s.Stream:
		return KindFollow
	case s.Parallel > 1:
		return KindScaleOut
	default:
		return KindQuery
	}
}

// String renders the statement in canonical form: keywords uppercase,
// names quoted where the bare identifier syntax cannot express them,
// options in a fixed order. The rendering reparses to an equivalent
// statement and is a fixed point of parse∘print — the round-trip
// invariant FuzzParseEQL locks.
func (s *Statement) String() string {
	var b strings.Builder
	if s.Analyze {
		b.WriteString("EXPLAIN ANALYZE ")
	} else if s.Explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	if s.Stream {
		b.WriteString("STREAM ")
	}
	fmt.Fprintf(&b, "TOP %d ", s.K)
	if s.Window > 0 {
		fmt.Fprintf(&b, "WINDOWS OF %d", s.Window)
		if s.Stride > 0 {
			fmt.Fprintf(&b, " EVERY %d", s.Stride)
		}
	} else {
		b.WriteString("FRAMES")
	}
	b.WriteString(" FROM ")
	for i, src := range s.Sources {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(quoteName(src.Name))
	}
	b.WriteString(" RANK BY ")
	for i, p := range s.Predicates {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
	if s.Threshold > 0 {
		fmt.Fprintf(&b, " THRESHOLD %s", formatFloat(s.Threshold))
	}
	if s.SampleFrac > 0 {
		fmt.Fprintf(&b, " SAMPLE %s", formatFloat(s.SampleFrac))
	}
	if s.Frames > 0 {
		fmt.Fprintf(&b, " LIMIT FRAMES %d", s.Frames)
	}
	if s.Seed > 0 {
		fmt.Fprintf(&b, " SEED %d", s.Seed)
	}
	if s.Parallel > 0 {
		fmt.Fprintf(&b, " PARALLEL %d", s.Parallel)
	}
	return b.String()
}

// String renders the script in canonical form, one statement per line.
func (s *Script) String() string {
	parts := make([]string, len(s.Statements))
	for i, st := range s.Statements {
		parts[i] = st.String()
	}
	return strings.Join(parts, ";\n")
}

// formatFloat renders a float without exponent notation (the lexer has
// no exponent syntax, so %g output would not reparse).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// identLike reports whether the lexer would read s back as one bare
// identifier token.
func identLike(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_', r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case i > 0 && (r == '-' || r >= '0' && r <= '9'):
		default:
			return false
		}
	}
	return true
}

// quoteName renders a name as a string literal. The lexer's strings
// have no escapes, so the quote character is chosen to avoid the
// content (a lexed name can never contain both quote kinds).
func quoteName(s string) string {
	if strings.Contains(s, `"`) {
		return "'" + s + "'"
	}
	return `"` + s + `"`
}

// printName renders a function name: bare when the identifier syntax
// can express it, quoted otherwise.
func printName(s string) string {
	if identLike(s) {
		return s
	}
	return quoteName(s)
}

// printArg renders a predicate argument: empty stays empty (count()),
// anything else is quoted.
func printArg(s string) string {
	if s == "" {
		return ""
	}
	return quoteName(s)
}
