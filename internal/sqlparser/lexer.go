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
	// code is an operator's byte code (tokOp: the byte itself, or opLE,
	// opGE, opNE for the two-byte operators), or numFloat for a number
	// written with a fraction or an exponent; 0 otherwise.
	code byte
	// slot is the 1-based literal slot Lex gave a normalized literal; 0 for
	// every other token.
	slot int32
	text string // keywords upper-cased; idents as written; ops canonical
	pos  int    // byte offset in the input (for errors)
}

// Byte codes of the two-byte operators; the one-byte operators are their
// own byte.
const (
	opLE byte = 0x80 + iota // <=
	opGE                    // >=
	opNE                    // != and <>
)

// numFloat is the code of a number token that converts to FLOAT whatever
// its magnitude.
const numFloat byte = 1

// Byte classes of ASCII input; a byte from utf8.RuneSelf up starts a
// multi-byte character, which the unicode path classifies.
const (
	clSpace      uint8 = 1 << iota
	clIdentStart       // '_' and letters
	clIdentCont        // clIdentStart and digits
	clOp               // a one-byte operator
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for _, c := range []byte(" \t\n\r") {
		t[c] = clSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c] = clIdentStart | clIdentCont
		t[c-'a'+'A'] = clIdentStart | clIdentCont
	}
	t['_'] = clIdentStart | clIdentCont
	for c := '0'; c <= '9'; c++ {
		t[c] = clIdentCont
	}
	for _, c := range []byte("=<>+-*/%(),;.") {
		t[c] = clOp
	}
	return t
}()

// maxKeywordLen is the length of the longest keyword (TRANSACTION).
const maxKeywordLen = 11

// keywordsByShape buckets the keywords recognized by the lexer by length
// and first letter, so a lookup compares an identifier with one or two
// candidates in place: idents are lexed on every statement, plan-cache
// hits included.
var keywordsByShape = func() (t [maxKeywordLen + 1][26][]string) {
	for _, kw := range strings.Fields(`SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT ASC DESC
		INSERT INTO VALUES UPDATE SET DELETE CREATE TABLE INDEX UNIQUE
		DROP PRIMARY KEY NOT NULL AND OR AS JOIN ON IS
		BEGIN COMMIT ROLLBACK TRANSACTION PROCEDURE EXEC CALL IF THEN
		ELSE END TRUE FALSE DISTINCT`) {
		t[len(kw)][kw[0]-'A'] = append(t[len(kw)][kw[0]-'A'], kw)
	}
	return t
}()

// keyword returns the keyword text names, case-insensitively.
func keyword(text string) (string, bool) {
	if len(text) > maxKeywordLen {
		return "", false
	}
	first := text[0] | 0x20 // ASCII lower case
	if first < 'a' || first > 'z' {
		return "", false
	}
	for _, kw := range keywordsByShape[len(text)][first-'a'] {
		if upperEquals(text, kw) {
			return kw, true
		}
	}
	return "", false
}

// upperEquals reports whether text, upper-cased in ASCII, is upper, an
// upper-case ASCII word of the same length. Clearing bit 0x20 maps a
// byte to an upper-case letter only when the byte is that letter in
// either case.
func upperEquals(text, upper string) bool {
	for i := 0; i < len(upper); i++ {
		if text[i]&^0x20 != upper[i] {
			return false
		}
	}
	return true
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
		case l.identStart():
			l.lexIdent()
		case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
			l.lexNumber()
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '@':
			l.pos++
			if !l.identStart() {
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
		case c < utf8.RuneSelf && byteClass[c]&clSpace != 0:
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] == ' ' {
				l.pos++
			}
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

// identStart reports whether an identifier starts at the current
// position.
func (l *lexer) identStart() bool {
	if l.pos >= len(l.src) {
		return false
	}
	if c := l.src[l.pos]; c < utf8.RuneSelf {
		return byteClass[c]&clIdentStart != 0
	}
	r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
	return isIdentStart(r)
}

// skipIdent advances past identifier characters.
func (l *lexer) skipIdent() {
	src, pos := l.src, l.pos
	for pos < len(src) {
		if c := src[pos]; c < utf8.RuneSelf {
			if byteClass[c]&clIdentCont == 0 {
				break
			}
			pos++
			continue
		}
		r, n := utf8.DecodeRuneInString(src[pos:])
		if !isIdentCont(r) {
			break
		}
		pos += n
	}
	l.pos = pos
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
	qualifies := len(rest) > 0 && rest[0] == '.' && !(len(rest) > 1 && isDigit(rest[1]))
	if kw, ok := keyword(text); ok && !qualifies {
		l.toks = append(l.toks, token{kind: tokKeyword, text: kw, pos: start})
		return
	}
	l.toks = append(l.toks, token{kind: tokIdent, text: text, pos: start})
}

func (l *lexer) lexNumber() {
	start := l.pos
	var code byte
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isDigit(c) {
			l.pos++
			continue
		}
		if c == '.' && code == 0 {
			code = numFloat
			l.pos++
			continue
		}
		if (c == 'e' || c == 'E') && l.pos+1 < len(l.src) {
			next := l.src[l.pos+1]
			if isDigit(next) || ((next == '+' || next == '-') && l.pos+2 < len(l.src) && isDigit(l.src[l.pos+2])) {
				code = numFloat
				l.pos += 2
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			}
		}
		break
	}
	l.toks = append(l.toks, token{kind: tokNumber, code: code, text: l.src[start:l.pos], pos: start})
}

// lexString reads a quoted string. Its text is the source's bytes when no
// quote is doubled, and one unescaped copy otherwise.
func (l *lexer) lexString() error {
	start := l.pos
	end, doubled := start+1, false // end: the closing quote
	for {
		i := strings.IndexByte(l.src[end:], '\'')
		if i < 0 {
			l.pos = len(l.src)
			return &ParseError{Offset: start, Token: l.src[start:], Msg: "unterminated string", Src: l.src}
		}
		end += i
		if end+1 < len(l.src) && l.src[end+1] == '\'' {
			end, doubled = end+2, true
			continue
		}
		break
	}
	text := l.src[start+1 : end]
	if doubled {
		text = strings.ReplaceAll(text, "''", "'")
	}
	l.pos = end + 1
	l.toks = append(l.toks, token{kind: tokString, text: text, pos: start})
	return nil
}

func (l *lexer) lexOp() error {
	start := l.pos
	c := l.src[l.pos]
	if l.pos+1 < len(l.src) {
		var code byte
		switch next := l.src[l.pos+1]; {
		case c == '<' && next == '=':
			code = opLE
		case c == '>' && next == '=':
			code = opGE
		case (c == '!' && next == '=') || (c == '<' && next == '>'):
			code = opNE
		}
		if code != 0 {
			text := l.src[start : start+2]
			if code == opNE {
				text = "!="
			}
			l.toks = append(l.toks, token{kind: tokOp, code: code, text: text, pos: start})
			l.pos += 2
			return nil
		}
	}
	if c < utf8.RuneSelf && byteClass[c]&clOp != 0 {
		l.toks = append(l.toks, token{kind: tokOp, code: c, text: l.src[start : start+1], pos: start})
		l.pos++
		return nil
	}
	return &ParseError{Offset: start, Token: string(c), Msg: fmt.Sprintf("unexpected character %q", c), Src: l.src}
}
