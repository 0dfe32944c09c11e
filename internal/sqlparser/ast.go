// Package sqlparser implements the SQL dialect understood by the embedded
// engine: DDL (CREATE TABLE / INDEX / PROCEDURE, DROP TABLE), DML
// (SELECT with joins, grouping, ordering and limits, INSERT, UPDATE,
// DELETE), transaction control, and a small procedural language
// (IF/ELSE, SET) for stored procedures.
package sqlparser

import (
	"fmt"
	"strings"

	"sqlcm/internal/sqltypes"
)

// Statement is implemented by every parsed SQL statement.
type Statement interface {
	stmtNode()
	String() string
}

// Expr is implemented by every expression node.
type Expr interface {
	exprNode()
	String() string
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

// ColumnDef describes one column in CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       sqltypes.Kind
	PrimaryKey bool
	NotNull    bool
}

// CreateTable is CREATE TABLE name (col type [PRIMARY KEY] [NOT NULL], …).
type CreateTable struct {
	Name    string
	Columns []ColumnDef
}

func (*CreateTable) stmtNode() {}

func (s *CreateTable) String() string {
	parts := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		p := c.Name + " " + c.Type.String()
		if c.PrimaryKey {
			p += " PRIMARY KEY"
		}
		if c.NotNull {
			p += " NOT NULL"
		}
		parts[i] = p
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", s.Name, strings.Join(parts, ", "))
}

// CreateIndex is CREATE [UNIQUE] INDEX name ON table (cols…).
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
	Unique  bool
}

func (*CreateIndex) stmtNode() {}

func (s *CreateIndex) String() string {
	u := ""
	if s.Unique {
		u = "UNIQUE "
	}
	return fmt.Sprintf("CREATE %sINDEX %s ON %s (%s)", u, s.Name, s.Table, strings.Join(s.Columns, ", "))
}

// DropTable is DROP TABLE name.
type DropTable struct{ Name string }

func (*DropTable) stmtNode()        {}
func (s *DropTable) String() string { return "DROP TABLE " + s.Name }

// ProcParam is a stored-procedure parameter declaration.
type ProcParam struct {
	Name string // without the leading '@'
	Type sqltypes.Kind
}

// CreateProcedure is CREATE PROCEDURE name (@p type, …) AS BEGIN … END.
type CreateProcedure struct {
	Name   string
	Params []ProcParam
	Body   []Statement
}

func (*CreateProcedure) stmtNode() {}

func (s *CreateProcedure) String() string {
	params := make([]string, len(s.Params))
	for i, p := range s.Params {
		params[i] = "@" + p.Name + " " + p.Type.String()
	}
	return fmt.Sprintf("CREATE PROCEDURE %s (%s) AS BEGIN … END", s.Name, strings.Join(params, ", "))
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

// SelectItem is one projection in a SELECT list.
type SelectItem struct {
	Expr  Expr   // nil when Star
	Alias string // optional
	Star  bool   // SELECT *
}

// JoinClause is one JOIN table [AS alias] ON cond.
type JoinClause struct {
	Table string
	Alias string
	On    Expr
}

// Select is a SELECT statement.
type Select struct {
	Items   []SelectItem
	Table   string // first FROM table; empty for table-less SELECT
	Alias   string
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
}

// OrderItem is one ORDER BY term.
type OrderItem struct {
	Expr Expr
	Desc bool
}

func (*Select) stmtNode() {}

func (s *Select) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteString("*")
		} else {
			b.WriteString(it.Expr.String())
			if it.Alias != "" {
				b.WriteString(" AS " + it.Alias)
			}
		}
	}
	if s.Table != "" {
		b.WriteString(" FROM " + s.Table)
		if s.Alias != "" {
			b.WriteString(" AS " + s.Alias)
		}
	}
	for _, j := range s.Joins {
		b.WriteString(" JOIN " + j.Table)
		if j.Alias != "" {
			b.WriteString(" AS " + j.Alias)
		}
		b.WriteString(" ON " + j.On.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(g.String())
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.String())
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

// Insert is INSERT INTO table [(cols…)] VALUES (…), (…).
type Insert struct {
	Table   string
	Columns []string // empty means "all columns in table order"
	Rows    [][]Expr
}

func (*Insert) stmtNode() {}

func (s *Insert) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (" + strings.Join(s.Columns, ", ") + ")")
	}
	b.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteString(")")
	}
	return b.String()
}

// Assignment is one SET col = expr clause in UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// Update is UPDATE table SET … [WHERE …].
type Update struct {
	Table string
	Sets  []Assignment
	Where Expr
}

func (*Update) stmtNode() {}

func (s *Update) String() string {
	var b strings.Builder
	b.WriteString("UPDATE " + s.Table + " SET ")
	for i, a := range s.Sets {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column + " = " + a.Expr.String())
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	return b.String()
}

// Delete is DELETE FROM table [WHERE …].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmtNode() {}

func (s *Delete) String() string {
	out := "DELETE FROM " + s.Table
	if s.Where != nil {
		out += " WHERE " + s.Where.String()
	}
	return out
}

// ---------------------------------------------------------------------------
// Transactions & procedures
// ---------------------------------------------------------------------------

// Begin is BEGIN [TRANSACTION].
type Begin struct{}

func (*Begin) stmtNode()      {}
func (*Begin) String() string { return "BEGIN" }

// Commit is COMMIT.
type Commit struct{}

func (*Commit) stmtNode()      {}
func (*Commit) String() string { return "COMMIT" }

// Rollback is ROLLBACK.
type Rollback struct{}

func (*Rollback) stmtNode()      {}
func (*Rollback) String() string { return "ROLLBACK" }

// Exec is EXEC procname expr, …  (or CALL procname(expr, …)).
type Exec struct {
	Proc string
	Args []Expr
}

func (*Exec) stmtNode() {}

func (s *Exec) String() string {
	args := make([]string, len(s.Args))
	for i, a := range s.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("EXEC %s %s", s.Proc, strings.Join(args, ", "))
}

// If is the procedural IF cond THEN … [ELSE …] END IF.
type If struct {
	Cond Expr
	Then []Statement
	Else []Statement
}

func (*If) stmtNode() {}

func (s *If) String() string {
	out := "IF " + s.Cond.String() + " THEN …"
	if len(s.Else) > 0 {
		out += " ELSE …"
	}
	return out + " END IF"
}

// SetVar is the procedural SET @name = expr.
type SetVar struct {
	Name string
	Expr Expr
}

func (*SetVar) stmtNode()        {}
func (s *SetVar) String() string { return "SET @" + s.Name + " = " + s.Expr.String() }

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Literal is a constant value. A literal Lex normalized (Slot > 0) is bound
// per execution: it evaluates to the statement's literal number Slot
// (1-based, negated when Neg), and Val is only the value in the text that
// was parsed.
type Literal struct {
	Val  sqltypes.Value
	Slot int
	Neg  bool
}

func (*Literal) exprNode()        {}
func (e *Literal) String() string { return e.Val.SQLLiteral() }

// ColumnRef references a column, optionally qualified by table/alias.
type ColumnRef struct {
	Table  string
	Column string
}

func (*ColumnRef) exprNode() {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return e.Table + "." + e.Column
	}
	return e.Column
}

// Param references a named parameter or procedure variable (@name).
type Param struct{ Name string }

func (*Param) exprNode()        {}
func (e *Param) String() string { return "@" + e.Name }

// CmpOp enumerates comparison operators.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String returns the SQL spelling of the comparison operator.
func (op CmpOp) String() string {
	switch op {
	case CmpEq:
		return "="
	case CmpNe:
		return "!="
	case CmpLt:
		return "<"
	case CmpLe:
		return "<="
	case CmpGt:
		return ">"
	case CmpGe:
		return ">="
	default:
		return "?"
	}
}

// Comparison is left op right.
type Comparison struct {
	Op          CmpOp
	Left, Right Expr
}

func (*Comparison) exprNode() {}

func (e *Comparison) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left.String(), e.Op.String(), e.Right.String())
}

// Arith is left op right for +,-,*,/,%.
type Arith struct {
	Op          sqltypes.BinaryOp
	Left, Right Expr
}

func (*Arith) exprNode() {}

func (e *Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left.String(), e.Op.String(), e.Right.String())
}

// LogicOp enumerates boolean connectives.
type LogicOp uint8

// Boolean connectives.
const (
	LogicAnd LogicOp = iota
	LogicOr
)

// String returns "AND" or "OR".
func (op LogicOp) String() string {
	if op == LogicAnd {
		return "AND"
	}
	return "OR"
}

// Logic is left AND/OR right.
type Logic struct {
	Op          LogicOp
	Left, Right Expr
}

func (*Logic) exprNode() {}

func (e *Logic) String() string {
	return fmt.Sprintf("(%s %s %s)", e.Left.String(), e.Op.String(), e.Right.String())
}

// Not is NOT expr.
type Not struct{ Expr Expr }

func (*Not) exprNode()        {}
func (e *Not) String() string { return "(NOT " + e.Expr.String() + ")" }

// Neg is unary minus.
type Neg struct{ Expr Expr }

func (*Neg) exprNode()        {}
func (e *Neg) String() string { return "(-" + e.Expr.String() + ")" }

// IsNull is expr IS [NOT] NULL.
type IsNull struct {
	Expr   Expr
	Negate bool
}

func (*IsNull) exprNode() {}

func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.Expr.String() + " IS NOT NULL)"
	}
	return "(" + e.Expr.String() + " IS NULL)"
}

// FuncCall is an aggregate or scalar function call. Star marks COUNT(*).
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	Star bool
}

func (*FuncCall) exprNode() {}

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
}

// AggregateFuncs is the set of recognized aggregate function names.
var AggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true, "STDEV": true,
}

// IsAggregate reports whether the expression tree contains an aggregate call.
func IsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) {
		if f, ok := x.(*FuncCall); ok && AggregateFuncs[f.Name] {
			found = true
		}
	})
	return found
}

// WalkExpr calls fn for e and every sub-expression of e.
func WalkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Comparison:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *Arith:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *Logic:
		WalkExpr(x.Left, fn)
		WalkExpr(x.Right, fn)
	case *Not:
		WalkExpr(x.Expr, fn)
	case *Neg:
		WalkExpr(x.Expr, fn)
	case *IsNull:
		WalkExpr(x.Expr, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, fn)
		}
	}
}
