// Package eql implements the Everest Query Language, a small declarative
// layer over the Top-K engine. The paper's conclusion (§5) names
// integration with an expressive video query language (FrameQL [37],
// Rekall [25]) as the path to richer analytics; EQL is that integration
// for the reproduced system:
//
//	SELECT TOP 50 FRAMES FROM "Taipei-bus"
//	RANK BY count(car) THRESHOLD 0.9
//
//	SELECT TOP 10 WINDOWS OF 150 FROM "Dashcam-California"
//	RANK BY tailgate() THRESHOLD 0.9 SAMPLE 0.1
//
// Statement grammar: [EXPLAIN [ANALYZE]] SELECT [STREAM] TOP k
// (FRAMES | WINDOWS OF n [EVERY m]) FROM source ("," source)*
// RANK BY udf[(arg)] (AND udf[(arg)])*
// [THRESHOLD p] [SAMPLE f] [LIMIT FRAMES n] [SEED s] [PARALLEL w].
//
// Semicolon-separated statements form a script (ParseScript) that is
// bound to a coordinated plan set (BindScript) and executed over shared
// sub-plans with one scheduling budget (ScriptSession) — statements
// over the same (video, frames, UDF, seed) relation ingest once and
// share oracle labels, bit-identical to running them one at a time. A
// single statement is a one-statement script: Execute, Explain and
// Analyze bind through the same BindScript and work on its one Unit,
// and what executing any statement means is its Kind.
package eql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokLParen
	tokRParen
	tokComma
	tokSemi
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of statement"
	case tokString:
		return fmt.Sprintf("%q", t.text)
	default:
		return t.text
	}
}

// lexer splits an EQL string into tokens. Keywords are case-insensitive
// identifiers; the parser decides which identifiers are keywords.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return &ParseError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == ',':
		l.pos++
		return token{tokComma, ",", start}, nil
	case c == ';':
		l.pos++
		return token{tokSemi, ";", start}, nil
	case c == '"' || c == '\'':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) && l.src[l.pos] != quote {
			b.WriteByte(l.src[l.pos])
			l.pos++
		}
		if l.pos >= len(l.src) {
			// AtEOF: a later input line may supply the closing quote — the
			// REPL treats this as a continuation, not a fatal error.
			return token{}, &ParseError{Pos: start, AtEOF: true, Msg: "unterminated string"}
		}
		l.pos++ // closing quote
		return token{tokString, b.String(), start}, nil
	case unicode.IsDigit(rune(c)) || c == '.':
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.') {
			l.pos++
		}
		return token{tokNumber, l.src[start:l.pos], start}, nil
	case unicode.IsLetter(rune(c)) || c == '_':
		for l.pos < len(l.src) {
			r := rune(l.src[l.pos])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '-' {
				break
			}
			l.pos++
		}
		return token{tokIdent, l.src[start:l.pos], start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

// lexAll tokenizes the whole query.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
