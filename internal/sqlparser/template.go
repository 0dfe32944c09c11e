package sqlparser

import (
	"encoding/binary"
	"slices"
	"strconv"
	"strings"

	"sqlcm/internal/sqltypes"
)

// Template is one token pass over a statement text: the query template of
// §4.2 (the statement with its constants wildcarded), the constants
// themselves, and the tokens, so a plan cache keyed on Key parses only on a
// miss.
type Template struct {
	// Key identifies the template: the token stream with every normalized
	// literal replaced by a marker of its kind. Texts with equal keys parse
	// to the same statement up to the values of those literals.
	Key []byte
	// Lits are the normalized literals' values in text order; Literal.Slot
	// numbers them from 1.
	Lits []sqltypes.Value
	// Params are the @name parameters in first-appearance order.
	Params []string

	toks []token
	src  string
}

// Lex tokenizes src once. The literals of a SELECT, INSERT, UPDATE or
// DELETE are normalized except where the plan depends on their text (see
// keepVerbatim); no other statement is planned, so none has any.
func Lex(src string) (Template, error) {
	toks, err := lex(src)
	if err != nil {
		return Template{}, err
	}
	t := Template{toks: toks, src: src, Key: make([]byte, 0, len(src)+2*len(toks))}
	dml := toks[0].kind == tokKeyword &&
		(toks[0].text == "SELECT" || toks[0].text == "INSERT" || toks[0].text == "UPDATE" || toks[0].text == "DELETE")
	if dml {
		keepVerbatim(toks)
		t.Lits = make([]sqltypes.Value, 0, 4)
	}
	for i := range toks {
		tk := &toks[i]
		if tk.kind == tokParam && !slices.Contains(t.Params, tk.text) {
			t.Params = append(t.Params, tk.text)
		}
		if v, ok := literalValue(*tk); ok && dml && tk.slot == 0 {
			t.Lits = append(t.Lits, v)
			tk.slot = int32(len(t.Lits))
			t.Key = append(t.Key, 0x80|byte(v.Kind())) // token kinds stay below 0x80
			continue
		}
		tk.slot = 0
		t.Key = append(t.Key, byte(tk.kind))
		t.Key = binary.AppendUvarint(t.Key, uint64(len(tk.text)))
		t.Key = append(t.Key, tk.text...)
	}
	return t, nil
}

// Parse parses the template's tokens as exactly one statement whose
// normalized literals read their slots.
func (t *Template) Parse() (Statement, error) { return parseOne(t.toks, t.src) }

// keepVerbatim marks (slot -1) the literals whose text the plan depends on,
// so they stay in the key: the LIMIT count, an int64 in the AST; literals
// in aggregate calls, which are matched by their text; and literals in
// unaliased select-list items, whose text names the result column.
func keepVerbatim(toks []token) {
	depth, aggDepth := 0, 0 // aggDepth: depth inside the open aggregate call, 0 if none
	for i := range toks {
		t := &toks[i]
		switch {
		case t.isOp("("):
			depth++
		case t.isOp(")"):
			if depth == aggDepth {
				aggDepth = 0
			}
			depth--
		case t.kind == tokKeyword && t.text == "LIMIT" && i+1 < len(toks):
			toks[i+1].slot = -1
		case t.kind == tokKeyword && t.text == "SELECT":
			keepSelectList(toks[i+1:])
		case t.kind == tokIdent && aggDepth == 0 && i+1 < len(toks) && toks[i+1].isOp("(") && AggregateFuncs[strings.ToUpper(t.text)]:
			aggDepth = depth + 1
		case aggDepth > 0 && (t.kind == tokNumber || t.kind == tokString):
			t.slot = -1
		}
	}
}

// keepSelectList marks the literals of the unaliased items of the select
// list toks starts with.
func keepSelectList(toks []token) {
	start, depth := 0, 0
	for i, t := range toks {
		switch {
		case t.isOp("("):
			depth++
		case t.isOp(")"):
			depth--
		}
		end := t.kind == tokEOF || t.isOp(";") || (t.kind == tokKeyword && depth == 0 && selectListEnd[t.text])
		if !end && !(depth == 0 && t.isOp(",")) {
			continue
		}
		if item := toks[start:i]; !aliased(item) {
			for j := range item {
				if item[j].kind == tokNumber || item[j].kind == tokString {
					item[j].slot = -1
				}
			}
		}
		if end {
			return
		}
		start = i + 1
	}
}

// selectListEnd are the keywords that end a select list.
var selectListEnd = map[string]bool{"FROM": true, "WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true, "LIMIT": true}

// aliased reports whether a select-list item ends in an alias, as the
// parser reads one: an identifier after AS or right after an operand.
func aliased(item []token) bool {
	n := len(item)
	if n < 2 || item[n-1].kind != tokIdent {
		return false
	}
	switch prev := item[n-2]; prev.kind {
	case tokIdent, tokNumber, tokString, tokParam:
		return true
	case tokKeyword:
		return prev.text == "AS" || prev.text == "NULL" || prev.text == "TRUE" || prev.text == "FALSE"
	default:
		return prev.text == ")"
	}
}

func (t *token) isOp(op string) bool { return t.kind == tokOp && t.text == op }

// literalValue is the value of a number or string token; a number that
// does not convert is not a literal here and stays in the key, so the
// parser reports it.
func literalValue(t token) (sqltypes.Value, bool) {
	switch t.kind {
	case tokNumber:
		return numberValue(t.text)
	case tokString:
		return sqltypes.NewString(t.text), true
	}
	return sqltypes.Value{}, false
}

// numberValue converts a number token: FLOAT with a fraction or exponent
// or beyond the INT range, INT otherwise.
func numberValue(text string) (sqltypes.Value, bool) {
	if !strings.ContainsAny(text, ".eE") {
		if n, err := strconv.ParseInt(text, 10, 64); err == nil {
			return sqltypes.NewInt(n), true
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return sqltypes.Value{}, false
	}
	return sqltypes.NewFloat(f), true
}
