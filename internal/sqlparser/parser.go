package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"sqlcm/internal/sqltypes"
)

// Parse parses a single SQL statement (a trailing semicolon is allowed).
// Its literals are constants; Lex and Template.Parse give the engine the
// same statement with its normalized literals bound per execution.
func Parse(src string) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseOne(toks, src)
}

func parseOne(toks []token, src string) (Statement, error) {
	stmts, err := parseAll(toks, src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sqlparser: expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseAll parses a semicolon-separated sequence of statements.
func ParseAll(src string) ([]Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	return parseAll(toks, src)
}

func parseAll(toks []token, src string) ([]Statement, error) {
	p := &parser{toks: toks, src: src}
	var out []Statement
	for {
		for p.peekOp(";") {
			p.next()
		}
		if p.peek().kind == tokEOF {
			break
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.peekOp(";") && p.peek().kind != tokEOF {
			return nil, p.errf("expected ';' or end of input, found %q", p.peek().text)
		}
	}
	return out, nil
}

// ParseExpr parses a standalone expression (used by the rule engine tests).
func ParseExpr(src string) (Expr, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, p.errf("trailing input after expression: %q", p.peek().text)
	}
	return e, nil
}

type parser struct {
	toks []token
	i    int
	src  string
}

func (p *parser) peek() token   { return p.toks[p.i] }
func (p *parser) next() token   { t := p.toks[p.i]; p.i++; return t }
func (p *parser) save() int     { return p.i }
func (p *parser) restore(i int) { p.i = i }

// ParseError is a structured parse failure: the byte offset and text of
// the offending token, so diagnostics (rulecheck) can point at the exact
// position in the source.
type ParseError struct {
	Offset int    // byte offset of the offending token in the input
	Token  string // the offending token's text ("" at end of input)
	Msg    string
	Src    string // the full input, for context rendering
}

// Error implements error.
func (e *ParseError) Error() string {
	tok := e.Token
	if tok == "" {
		tok = "end of input"
	} else {
		tok = fmt.Sprintf("%q", tok)
	}
	return fmt.Sprintf("sqlparser: %s (at offset %d, token %s, in %q)", e.Msg, e.Offset, tok, truncate(e.Src, 80))
}

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.peek()
	return &ParseError{
		Offset: t.pos,
		Token:  t.text,
		Msg:    fmt.Sprintf(format, args...),
		Src:    p.src,
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

func (p *parser) peekKw(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) acceptKw(kw string) bool {
	if p.peekKw(kw) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, found %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) peekOp(op string) bool {
	t := p.peek()
	return t.kind == tokOp && t.text == op
}

func (p *parser) acceptOp(op string) bool {
	if p.peekOp(op) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, found %q", op, p.peek().text)
	}
	return nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errf("expected identifier, found %q", t.text)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.peek()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "BEGIN":
		p.next()
		p.acceptKw("TRANSACTION")
		return &Begin{}, nil
	case "COMMIT":
		p.next()
		p.acceptKw("TRANSACTION")
		return &Commit{}, nil
	case "ROLLBACK":
		p.next()
		p.acceptKw("TRANSACTION")
		return &Rollback{}, nil
	case "EXEC", "CALL":
		return p.parseExec()
	case "IF":
		return p.parseIf()
	case "SET":
		return p.parseSetVar()
	default:
		return nil, p.errf("unsupported statement %q", t.text)
	}
}

func (p *parser) parseSelect() (Statement, error) {
	if err := p.expectKw("SELECT"); err != nil {
		return nil, err
	}
	sel := &Select{Limit: -1}
	p.acceptKw("DISTINCT") // accepted and ignored (engine has no duplicates path)
	for {
		if p.acceptOp("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKw("AS") {
				alias, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				item.Alias = alias
			} else if p.peek().kind == tokIdent {
				item.Alias = p.next().text
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("FROM") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		sel.Table = name
		if p.acceptKw("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			sel.Alias = alias
		} else if p.peek().kind == tokIdent {
			sel.Alias = p.next().text
		}
		for p.peekKw("JOIN") {
			p.next()
			j := JoinClause{}
			j.Table, err = p.expectIdent()
			if err != nil {
				return nil, err
			}
			if p.acceptKw("AS") {
				j.Alias, err = p.expectIdent()
				if err != nil {
					return nil, err
				}
			} else if p.peek().kind == tokIdent {
				j.Alias = p.next().text
			}
			if err := p.expectKw("ON"); err != nil {
				return nil, err
			}
			j.On, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.Joins = append(sel.Joins, j)
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKw("GROUP") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKw("ORDER") {
		if err := p.expectKw("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKw("DESC") {
				item.Desc = true
			} else {
				p.acceptKw("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if p.acceptKw("LIMIT") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errf("expected number after LIMIT, found %q", t.text)
		}
		p.next()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseInsert() (Statement, error) {
	if err := p.expectKw("INSERT"); err != nil {
		return nil, err
	}
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: name}
	if p.acceptOp("(") {
		for {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	if err := p.expectKw("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	upd := &Update{Table: name}
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Sets = append(upd.Sets, Assignment{Column: col, Expr: e})
		if !p.acceptOp(",") {
			break
		}
	}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *parser) parseDelete() (Statement, error) {
	if err := p.expectKw("DELETE"); err != nil {
		return nil, err
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	del := &Delete{Table: name}
	if p.acceptKw("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *parser) parseDrop() (Statement, error) {
	if err := p.expectKw("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &DropTable{Name: name}, nil
}

func (p *parser) parseCreate() (Statement, error) {
	if err := p.expectKw("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.peekKw("TABLE"):
		return p.parseCreateTable()
	case p.peekKw("INDEX") || p.peekKw("UNIQUE"):
		return p.parseCreateIndex()
	case p.peekKw("PROCEDURE"):
		return p.parseCreateProcedure()
	default:
		return nil, p.errf("expected TABLE, INDEX or PROCEDURE after CREATE, found %q", p.peek().text)
	}
}

func (p *parser) parseCreateTable() (Statement, error) {
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		typTok := p.peek()
		if typTok.kind != tokIdent && typTok.kind != tokKeyword {
			return nil, p.errf("expected type name, found %q", typTok.text)
		}
		p.next()
		kind, err := sqltypes.KindFromName(typTok.text)
		if err != nil {
			return nil, p.errf("%v", err)
		}
		def := ColumnDef{Name: col, Type: kind}
		for {
			switch {
			case p.acceptKw("PRIMARY"):
				if err := p.expectKw("KEY"); err != nil {
					return nil, err
				}
				def.PrimaryKey = true
				def.NotNull = true
			case p.acceptKw("NOT"):
				if err := p.expectKw("NULL"); err != nil {
					return nil, err
				}
				def.NotNull = true
			default:
				goto colDone
			}
		}
	colDone:
		ct.Columns = append(ct.Columns, def)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseCreateIndex() (Statement, error) {
	ci := &CreateIndex{}
	if p.acceptKw("UNIQUE") {
		ci.Unique = true
	}
	if err := p.expectKw("INDEX"); err != nil {
		return nil, err
	}
	var err error
	ci.Name, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("ON"); err != nil {
		return nil, err
	}
	ci.Table, err = p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return ci, nil
}

func (p *parser) parseCreateProcedure() (Statement, error) {
	if err := p.expectKw("PROCEDURE"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	cp := &CreateProcedure{Name: name}
	if p.acceptOp("(") {
		if !p.peekOp(")") {
			for {
				t := p.peek()
				if t.kind != tokParam {
					return nil, p.errf("expected @param, found %q", t.text)
				}
				p.next()
				typTok := p.peek()
				if typTok.kind != tokIdent && typTok.kind != tokKeyword {
					return nil, p.errf("expected type name, found %q", typTok.text)
				}
				p.next()
				kind, err := sqltypes.KindFromName(typTok.text)
				if err != nil {
					return nil, p.errf("%v", err)
				}
				cp.Params = append(cp.Params, ProcParam{Name: t.text, Type: kind})
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKw("BEGIN"); err != nil {
		return nil, err
	}
	body, err := p.parseStatementListUntilEnd()
	if err != nil {
		return nil, err
	}
	cp.Body = body
	return cp, nil
}

// parseStatementListUntilEnd parses ';'-separated statements until the
// keyword END, consuming it.
func (p *parser) parseStatementListUntilEnd() ([]Statement, error) {
	var out []Statement
	for {
		for p.peekOp(";") {
			p.next()
		}
		if p.acceptKw("END") {
			return out, nil
		}
		if p.peek().kind == tokEOF {
			return nil, p.errf("missing END")
		}
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.peekOp(";") && !p.peekKw("END") {
			return nil, p.errf("expected ';' or END, found %q", p.peek().text)
		}
	}
}

func (p *parser) parseExec() (Statement, error) {
	call := p.peekKw("CALL")
	p.next() // EXEC or CALL
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	ex := &Exec{Proc: name}
	if call {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		if !p.peekOp(")") {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				ex.Args = append(ex.Args, e)
				if !p.acceptOp(",") {
					break
				}
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return ex, nil
	}
	// EXEC name [arg, arg, …] — args end at ';' or EOF.
	if !p.peekOp(";") && p.peek().kind != tokEOF && !p.peekKw("END") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			ex.Args = append(ex.Args, e)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	return ex, nil
}

func (p *parser) parseIf() (Statement, error) {
	if err := p.expectKw("IF"); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("THEN"); err != nil {
		return nil, err
	}
	stmt := &If{Cond: cond}
	for {
		for p.peekOp(";") {
			p.next()
		}
		switch {
		case p.acceptKw("ELSE"):
			for {
				for p.peekOp(";") {
					p.next()
				}
				if p.acceptKw("END") {
					if err := p.expectKw("IF"); err != nil {
						return nil, err
					}
					return stmt, nil
				}
				s, err := p.parseStatement()
				if err != nil {
					return nil, err
				}
				stmt.Else = append(stmt.Else, s)
			}
		case p.acceptKw("END"):
			if err := p.expectKw("IF"); err != nil {
				return nil, err
			}
			return stmt, nil
		case p.peek().kind == tokEOF:
			return nil, p.errf("missing END IF")
		default:
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			stmt.Then = append(stmt.Then, s)
		}
	}
}

func (p *parser) parseSetVar() (Statement, error) {
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind != tokParam {
		return nil, p.errf("expected @variable after SET, found %q", t.text)
	}
	p.next()
	if err := p.expectOp("="); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &SetVar{Name: t.text, Expr: e}, nil
}

// ---------------------------------------------------------------------------
// Expression parsing (precedence climbing)
//   OR < AND < NOT < comparison < add/sub < mul/div/mod < unary < primary
// ---------------------------------------------------------------------------

func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Logic{Op: LogicOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKw("AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Logic{Op: LogicAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKw("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{Expr: e}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[string]CmpOp{
	"=": CmpEq, "!=": CmpNe, "<": CmpLt, "<=": CmpLe, ">": CmpGt, ">=": CmpGe,
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokOp {
		if op, ok := cmpOps[t.text]; ok {
			p.next()
			right, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			left = &Comparison{Op: op, Left: left, Right: right}
		}
	}
	// IS [NOT] NULL binds below the comparison operators, as in
	// PostgreSQL: a = b IS NULL is (a = b) IS NULL.
	if p.acceptKw("IS") {
		neg := p.acceptKw("NOT")
		if err := p.expectKw("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{Expr: left, Negate: neg}, nil
	}
	return left, nil
}

func (p *parser) parseAdd() (Expr, error) {
	left, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("+"):
			right, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &Arith{Op: sqltypes.OpAdd, Left: left, Right: right}
		case p.acceptOp("-"):
			right, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			left = &Arith{Op: sqltypes.OpSub, Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseMul() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptOp("*"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Arith{Op: sqltypes.OpMul, Left: left, Right: right}
		case p.acceptOp("/"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Arith{Op: sqltypes.OpDiv, Left: left, Right: right}
		case p.acceptOp("%"):
			right, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			left = &Arith{Op: sqltypes.OpMod, Left: left, Right: right}
		default:
			return left, nil
		}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptOp("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := e.(*Literal); ok {
			// A slotted literal keeps the fold: whether Negate succeeds
			// depends only on its kind, which every instance shares.
			v, nerr := sqltypes.Negate(lit.Val)
			if nerr == nil {
				return &Literal{Val: v, Slot: lit.Slot, Neg: lit.Slot > 0 && !lit.Neg}, nil
			}
		}
		return &Neg{Expr: e}, nil
	}
	if p.acceptOp("+") {
		return p.parseUnary()
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		v, ok := numberValue(t.text)
		if !ok {
			return nil, p.errf("bad number %q", t.text)
		}
		return &Literal{Val: v, Slot: int(t.slot)}, nil
	case tokString:
		p.next()
		return &Literal{Val: sqltypes.NewString(t.text), Slot: int(t.slot)}, nil
	case tokParam:
		p.next()
		return &Param{Name: t.text}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: sqltypes.Null}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokOp:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
		return nil, p.errf("unexpected %q in expression", t.text)
	case tokIdent:
		p.next()
		// function call?
		if p.peekOp("(") {
			p.next()
			fc := &FuncCall{Name: strings.ToUpper(t.text)}
			if p.acceptOp("*") {
				fc.Star = true
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
				return fc, nil
			}
			if !p.peekOp(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if !p.acceptOp(",") {
						break
					}
				}
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		// qualified column?
		if p.acceptOp(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	default:
		return nil, p.errf("unexpected token %q", t.text)
	}
}
