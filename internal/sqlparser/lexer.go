package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokParam // @name
	tokOp    // operators & punctuation
)

type token struct {
	kind tokenKind
	// slot is the 1-based literal slot Lex gave a normalized literal; 0 for
	// every other token.
	slot int32
	text string // keywords upper-cased; idents as written; ops canonical
	pos  int    // byte offset in the input (for errors)
}

// keywords recognized by the lexer, each mapped to itself so a lookup by
// the upper-cased identifier yields a string the token can keep.
var keywords = func() map[string]string {
	m := map[string]string{}
	for _, kw := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT ASC DESC
		INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE INDEX UNIQUE
		DROP PRIMARY KEY NOT NULL AND OR AS JOIN ON IS
		BEGIN COMMIT ROLLBACK TRANSACTION PROCEDURE EXEC CALL IF THEN
		ELSE END TRUE FALSE DISTINCT`) {
		m[kw] = kw
	}
	return m
}()

// keyword returns the keyword text names, case-insensitively, without
// allocating: idents are lexed on every statement, plan-cache hits
// included.
func keyword(text string) (string, bool) {
	var buf [16]byte
	if len(text) > len(buf) {
		return "", false
	}
	for i := 0; i < len(text); i++ {
		c := text[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(text)])]
	return kw, ok
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

// lex tokenizes src. It returns a token stream terminated by tokEOF.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+2)}
	for {
		l.skipSpaceAndComments()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
			return l.toks, nil
		}
		start := l.pos
		c := l.src[l.pos]
		switch {
		case isIdentStart(l.rune()):
			l.lexIdent()
		case c >= '0' && c <= '9':
			l.lexNumber()
		case c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '@':
			l.pos++
			if !isIdentStart(l.rune()) {
				return nil, &ParseError{Offset: start, Token: "@", Msg: "bare '@'", Src: l.src}
			}
			s := l.pos
			l.skipIdent()
			l.toks = append(l.toks, token{kind: tokParam, text: l.src[s:l.pos], pos: start})
		default:
			if err := l.lexOp(); err != nil {
				return nil, err
			}
		}
	}
}

func (l *lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			l.pos += 2
			for l.pos+1 < len(l.src) && !(l.src[l.pos] == '*' && l.src[l.pos+1] == '/') {
				l.pos++
			}
			l.pos += 2
			if l.pos > len(l.src) {
				l.pos = len(l.src)
			}
		default:
			return
		}
	}
}

// rune decodes the character at the current position (utf8.RuneError at
// the end of input).
func (l *lexer) rune() rune {
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return r
}

// skipIdent advances past identifier characters.
func (l *lexer) skipIdent() {
	for l.pos < len(l.src) {
		r, n := utf8.DecodeRuneInString(l.src[l.pos:])
		if !isIdentCont(r) {
			return
		}
		l.pos += n
	}
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool  { return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r) }
func isDigit(c byte) bool      { return c >= '0' && c <= '9' }

func (l *lexer) lexIdent() {
	start := l.pos
	l.skipIdent()
	text := l.src[start:l.pos]
	// A keyword qualifying a column (Transaction.Duration) is a name, as
	// written: the template key keeps its spelling. A '.' that starts a
	// number (SET.5) qualifies nothing.
	rest := l.src[l.pos:]
	qualifies := strings.HasPrefix(rest, ".") && !(len(rest) > 1 && isDigit(rest[1]))
	if kw, ok := keyword(text); ok && !qualifies {
		l.toks = append(l.toks, token{kind: tokKeyword, text: kw, pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			if isDigit(next) || ((next == '+' || next == '-') && l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2])) {
				l.pos += 2
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return &ParseError{Offset: start, Token: l.src[start:], Msg: "unterminated string", Src: l.src}
}

func (l *lexer) lexOp() error {
	start := l.pos
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "!=", "<>":
		text := two
		if text == "<>" {
			text = "!="
		}
		l.toks = append(l.toks, token{kind: tokOp, text: text, pos: start})
		l.pos += 2
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';', '.':
		l.toks = append(l.toks, token{kind: tokOp, text: l.src[start : start+1], pos: start})
		l.pos++
		return nil
	}
	return &ParseError{Offset: start, Token: string(c), Msg: fmt.Sprintf("unexpected character %q", c), Src: l.src}
}
