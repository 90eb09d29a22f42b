// Package query holds the building blocks shared by the three query
// languages in this repository (the Cypher-like gql, the SPARQL-like
// sparqlish, and the SQL-like gsql): a lexer, an expression AST with an
// evaluator, and the row/binding environment. The survey's Table II and
// Table V compare which engines expose which language; the front-ends live
// in the subpackages.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// TokKind classifies tokens.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct
	TokVar // ?name (sparqlish variables)
	TokIRI // <iri> (sparqlish IRIs)
)

// Token is one lexical element.
type Token struct {
	Kind TokKind
	Text string
	Pos  int
}

// Lexer splits an input string into tokens. Keywords are not distinguished
// from identifiers at this level; parsers match identifier text
// case-insensitively.
type Lexer struct {
	input string
	pos   int
	// IRIMode enables <...> IRI tokens and ?var tokens (sparqlish).
	IRIMode bool
	// peek holds the token Peek lexed ahead when hasPeek is set; it is
	// kept by value so peeking never moves a Token to the heap.
	peek    Token
	hasPeek bool
}

// NewLexer returns a lexer over input.
func NewLexer(input string) *Lexer { return &Lexer{input: input} }

// Errorf formats a parse error with position context.
func (l *Lexer) Errorf(pos int, format string, args ...any) error {
	return fmt.Errorf("at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// Peek returns the next token without consuming it.
func (l *Lexer) Peek() (Token, error) {
	if !l.hasPeek {
		t, err := l.lex()
		if err != nil {
			return Token{}, err
		}
		l.peek, l.hasPeek = t, true
	}
	return l.peek, nil
}

// Next consumes and returns the next token.
func (l *Lexer) Next() (Token, error) {
	if l.hasPeek {
		l.hasPeek = false
		return l.peek, nil
	}
	return l.lex()
}

// AcceptIdent consumes the next token if it is the given keyword
// (case-insensitive).
func (l *Lexer) AcceptIdent(kw string) bool {
	t, err := l.Peek()
	if err != nil || t.Kind != TokIdent || !strings.EqualFold(t.Text, kw) {
		return false
	}
	l.Next()
	return true
}

// ExpectIdent consumes the given keyword or fails.
func (l *Lexer) ExpectIdent(kw string) error {
	t, err := l.Next()
	if err != nil {
		return err
	}
	if t.Kind != TokIdent || !strings.EqualFold(t.Text, kw) {
		return l.Errorf(t.Pos, "expected %q, got %q", kw, t.Text)
	}
	return nil
}

// AcceptPunct consumes the next token if it is the given punctuation.
func (l *Lexer) AcceptPunct(p string) bool {
	t, err := l.Peek()
	if err != nil || t.Kind != TokPunct || t.Text != p {
		return false
	}
	l.Next()
	return true
}

// ExpectPunct consumes the given punctuation or fails.
func (l *Lexer) ExpectPunct(p string) error {
	t, err := l.Next()
	if err != nil {
		return err
	}
	if t.Kind != TokPunct || t.Text != p {
		return l.Errorf(t.Pos, "expected %q, got %q", p, t.Text)
	}
	return nil
}

// Count reads a count — a LIMIT, SKIP or OFFSET, a path bound: a number
// token of digits alone whose value fits in an int. A fraction, a missing
// count or a value beyond int is an error, never a clamped or wrapped int.
func (l *Lexer) Count() (int, error) {
	t, err := l.Next()
	if err != nil {
		return 0, err
	}
	if t.Kind == TokNumber {
		n, err := strconv.Atoi(t.Text)
		if err == nil {
			return n, nil
		}
		if errors.Is(err, strconv.ErrRange) {
			return 0, l.Errorf(t.Pos, "count %s is out of range", t.Text)
		}
	}
	return 0, l.Errorf(t.Pos, "expected an integer count, got %q", t.Text)
}

// multi-character punctuation, longest first.
var multiPunct = []string{"<=", ">=", "<>", "!=", "->", "<-", "=~"}

func (l *Lexer) lex() (Token, error) {
	for l.pos < len(l.input) && unicode.IsSpace(rune(l.input[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.input) {
		return Token{Kind: TokEOF, Pos: l.pos}, nil
	}
	start := l.pos
	c := l.input[l.pos]

	// sparqlish variables and IRIs.
	if l.IRIMode && c == '?' {
		l.pos++
		for l.pos < len(l.input) && isIdentChar(l.input[l.pos]) {
			l.pos++
		}
		if l.pos == start+1 {
			return Token{}, l.Errorf(start, "empty variable name")
		}
		return Token{Kind: TokVar, Text: l.input[start+1 : l.pos], Pos: start}, nil
	}
	if l.IRIMode && c == '<' {
		end := strings.IndexByte(l.input[l.pos:], '>')
		if end < 0 {
			return Token{}, l.Errorf(start, "unterminated IRI")
		}
		tok := Token{Kind: TokIRI, Text: l.input[l.pos+1 : l.pos+end], Pos: start}
		l.pos += end + 1
		return tok, nil
	}

	// Strings: single or double quoted with backslash escapes.
	if c == '\'' || c == '"' {
		quote := c
		l.pos++
		var sb strings.Builder
		for l.pos < len(l.input) {
			ch := l.input[l.pos]
			if ch == '\\' && l.pos+1 < len(l.input) {
				next := l.input[l.pos+1]
				switch next {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				default:
					sb.WriteByte(next)
				}
				l.pos += 2
				continue
			}
			if ch == quote {
				l.pos++
				return Token{Kind: TokString, Text: sb.String(), Pos: start}, nil
			}
			sb.WriteByte(ch)
			l.pos++
		}
		return Token{}, l.Errorf(start, "unterminated string")
	}

	// Numbers: integer or decimal, with optional leading minus handled by
	// parsers as unary.
	if c >= '0' && c <= '9' {
		for l.pos < len(l.input) && (l.input[l.pos] >= '0' && l.input[l.pos] <= '9') {
			l.pos++
		}
		if l.pos < len(l.input) && l.input[l.pos] == '.' && l.pos+1 < len(l.input) &&
			l.input[l.pos+1] >= '0' && l.input[l.pos+1] <= '9' {
			l.pos++
			for l.pos < len(l.input) && (l.input[l.pos] >= '0' && l.input[l.pos] <= '9') {
				l.pos++
			}
		}
		return Token{Kind: TokNumber, Text: l.input[start:l.pos], Pos: start}, nil
	}

	// Identifiers.
	if isIdentStart(c) {
		for l.pos < len(l.input) && isIdentChar(l.input[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.input[start:l.pos], Pos: start}, nil
	}

	// Punctuation.
	for _, mp := range multiPunct {
		if strings.HasPrefix(l.input[l.pos:], mp) {
			l.pos += len(mp)
			return Token{Kind: TokPunct, Text: mp, Pos: start}, nil
		}
	}
	l.pos++
	return Token{Kind: TokPunct, Text: string(c), Pos: start}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
