// Package signature computes SQLCM's four query signatures (§4.2 of the
// paper):
//
//   - Logical query signature: a canonical linearization of the optimizer's
//     logical plan tree with parameters replaced by positional symbols,
//     constants replaced by wildcards, and conjunct/disjunct order
//     normalized. Two statements share a logical signature iff they are
//     instances of the same query template.
//   - Physical plan signature: the same linearization over the physical
//     plan, additionally capturing access paths and join strategies.
//   - Logical/physical transaction signatures: a hash over the sequence of
//     per-statement signatures between the outermost BEGIN and COMMIT.
//
// Signatures are computed once per cached plan and reused (the paper caches
// them with the query plan).
package signature

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sqlcm/internal/plan"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// ID is a 64-bit signature value.
type ID uint64

// String renders the ID as 16 lower-case hex digits.
//
//sqlcm:hotpath
func (id ID) String() string {
	var b [16]byte
	return string(id.appendHex(b[:0]))
}

func (id ID) appendHex(dst []byte) []byte {
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, "0123456789abcdef"[id>>shift&0xf])
	}
	return dst
}

// fold continues the FNV-1a hash h over s.
func (h ID) fold(s string) ID {
	for i := 0; i < len(s); i++ {
		h = (h ^ ID(s[i])) * 1099511628211
	}
	return h
}

// hash is FNV-1a over a string.
func hash(s string) ID { return EmptyTransaction.fold(s) }

// Logical returns the logical query signature and its canonical text.
func Logical(l plan.Logical) (ID, string) {
	c := &canonicalizer{params: map[string]int{}}
	text := c.logical(l)
	return hash(text), text
}

// Physical returns the physical plan signature and its canonical text.
func Physical(p plan.Physical) (ID, string) {
	c := &canonicalizer{params: map[string]int{}}
	text := c.physical(p)
	return hash(text), text
}

// Transaction combines per-statement signatures into a transaction
// signature (order-sensitive: different code paths through a stored
// procedure yield different sequences and therefore different signatures):
// FNV-1a over each statement signature in hex followed by ';'.
func Transaction(ids []ID) ID {
	sig := EmptyTransaction
	for _, id := range ids {
		sig = sig.Then(id)
	}
	return sig
}

// EmptyTransaction is the signature of no statements (FNV-1a's offset).
const EmptyTransaction ID = 14695981039346656037

// Then extends a transaction signature by one statement without keeping
// the sequence: Transaction(append(ids, id)) == Transaction(ids).Then(id).
//
//sqlcm:hotpath
func (sig ID) Then(id ID) ID {
	var b [17]byte
	return sig.fold(string(append(id.appendHex(b[:0]), ';')))
}

// canonicalizer tracks parameter numbering while linearizing. Linearization
// appends into one reused buffer; only commutative-operand sorting
// materializes substrings.
type canonicalizer struct {
	params map[string]int // param name -> positional symbol
	buf    []byte
}

func (c *canonicalizer) paramSym(name string) string {
	n, ok := c.params[name]
	if !ok {
		n = len(c.params) + 1
		c.params[name] = n
	}
	return "$" + strconv.Itoa(n)
}

// expr materializes a sub-expression (needed where operand order is
// canonicalized by sorting).
func (c *canonicalizer) expr(e sqlparser.Expr) string {
	save := c.buf
	c.buf = c.buf[len(c.buf):]
	c.appendExpr(e)
	out := string(c.buf)
	c.buf = save
	return out
}

// appendExpr linearizes an expression into the buffer: constants → "?",
// parameters → positional symbols, commutative operator operands sorted.
func (c *canonicalizer) appendExpr(e sqlparser.Expr) {
	switch x := e.(type) {
	case nil:
	case *sqlparser.Literal:
		c.buf = append(c.buf, '?')
	case *sqlparser.Param:
		c.buf = append(c.buf, c.paramSym(x.Name)...)
	case *sqlparser.ColumnRef:
		if x.Table != "" {
			c.buf = appendLower(c.buf, x.Table)
			c.buf = append(c.buf, '.')
		}
		c.buf = appendLower(c.buf, x.Column)
	case *sqlparser.Comparison:
		l, r := c.expr(x.Left), c.expr(x.Right)
		op := x.Op
		// Canonical orientation: for symmetric operators sort operands; for
		// ordered operators put the lexically smaller side left, mirroring
		// the operator when swapping.
		if l > r {
			l, r = r, l
			switch op {
			case sqlparser.CmpLt:
				op = sqlparser.CmpGt
			case sqlparser.CmpLe:
				op = sqlparser.CmpGe
			case sqlparser.CmpGt:
				op = sqlparser.CmpLt
			case sqlparser.CmpGe:
				op = sqlparser.CmpLe
			}
		}
		c.buf = append(c.buf, '(')
		c.buf = append(c.buf, l...)
		c.buf = append(c.buf, op.String()...)
		c.buf = append(c.buf, r...)
		c.buf = append(c.buf, ')')
	case *sqlparser.Arith:
		l, r := c.expr(x.Left), c.expr(x.Right)
		if (x.Op == sqltypes.OpAdd || x.Op == sqltypes.OpMul) && l > r {
			l, r = r, l
		}
		c.buf = append(c.buf, '(')
		c.buf = append(c.buf, l...)
		c.buf = append(c.buf, x.Op.String()...)
		c.buf = append(c.buf, r...)
		c.buf = append(c.buf, ')')
	case *sqlparser.Logic:
		// Flatten the same-operator subtree and sort the operands so that
		// predicate order does not affect the signature.
		ops := flattenLogic(x, x.Op)
		parts := make([]string, len(ops))
		for i, o := range ops {
			parts[i] = c.expr(o)
		}
		sort.Strings(parts)
		c.buf = append(c.buf, '(')
		for i, p := range parts {
			if i > 0 {
				c.buf = append(c.buf, x.Op.String()...)
			}
			c.buf = append(c.buf, p...)
		}
		c.buf = append(c.buf, ')')
	case *sqlparser.Not:
		c.buf = append(c.buf, "NOT("...)
		c.appendExpr(x.Expr)
		c.buf = append(c.buf, ')')
	case *sqlparser.Neg:
		c.buf = append(c.buf, "NEG("...)
		c.appendExpr(x.Expr)
		c.buf = append(c.buf, ')')
	case *sqlparser.IsNull:
		if x.Negate {
			c.buf = append(c.buf, "ISNOTNULL("...)
		} else {
			c.buf = append(c.buf, "ISNULL("...)
		}
		c.appendExpr(x.Expr)
		c.buf = append(c.buf, ')')
	case *sqlparser.FuncCall:
		c.buf = append(c.buf, x.Name...)
		if x.Star {
			c.buf = append(c.buf, "(*)"...)
			return
		}
		c.buf = append(c.buf, '(')
		for i, a := range x.Args {
			if i > 0 {
				c.buf = append(c.buf, ',')
			}
			c.appendExpr(a)
		}
		c.buf = append(c.buf, ')')
	default:
		c.buf = append(c.buf, fmt.Sprintf("<%T>", e)...)
	}
}

// appendLower appends s lower-cased (ASCII fast path).
func appendLower(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		ch := s[i]
		if ch >= 'A' && ch <= 'Z' {
			ch += 'a' - 'A'
		}
		dst = append(dst, ch)
	}
	return dst
}

func flattenLogic(e sqlparser.Expr, op sqlparser.LogicOp) []sqlparser.Expr {
	if l, ok := e.(*sqlparser.Logic); ok && l.Op == op {
		return append(flattenLogic(l.Left, op), flattenLogic(l.Right, op)...)
	}
	return []sqlparser.Expr{e}
}

// logical linearizes a logical plan tree.
func (c *canonicalizer) logical(l plan.Logical) string {
	switch n := l.(type) {
	case *plan.LogicalScan:
		return "Scan[" + strings.ToLower(n.Table.Name) + "]"
	case *plan.LogicalFilter:
		return "Filter[" + c.expr(n.Pred) + "](" + c.logical(n.Child) + ")"
	case *plan.LogicalJoin:
		return "Join[" + c.expr(n.On) + "](" + c.logical(n.Left) + "," + c.logical(n.Right) + ")"
	case *plan.LogicalAgg:
		var gs, as []string
		for _, g := range n.GroupBy {
			gs = append(gs, c.expr(g))
		}
		for _, a := range n.Aggs {
			as = append(as, c.expr(a.Func))
		}
		h := ""
		if n.Having != nil {
			h = ";having=" + c.expr(n.Having)
		}
		return "Agg[" + strings.Join(gs, ",") + ";" + strings.Join(as, ",") + h + "](" + c.logical(n.Child) + ")"
	case *plan.LogicalProject:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			if it.Expr == nil {
				parts[i] = "*"
			} else {
				parts[i] = c.expr(it.Expr)
			}
		}
		return "Project[" + strings.Join(parts, ",") + "](" + c.logical(n.Child) + ")"
	case *plan.LogicalSort:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = c.expr(it.Expr)
			if it.Desc {
				parts[i] += " DESC"
			}
		}
		return "Sort[" + strings.Join(parts, ",") + "](" + c.logical(n.Child) + ")"
	case *plan.LogicalLimit:
		// The limit count is a constant and is wildcarded like any other.
		return "Limit[?](" + c.logical(n.Child) + ")"
	case *plan.LogicalInsert:
		cols := make([]string, len(n.Columns))
		for i, ord := range n.Columns {
			cols[i] = strconv.Itoa(ord)
		}
		return fmt.Sprintf("Insert[%s;cols=%s;rows=?]",
			strings.ToLower(n.Table.Name), strings.Join(cols, ","))
	case *plan.LogicalUpdate:
		parts := make([]string, len(n.Sets))
		for i, set := range n.Sets {
			parts[i] = strconv.Itoa(set.Column) + "=" + c.expr(set.Expr)
		}
		w := ""
		if n.Where != nil {
			w = ";where=" + c.expr(n.Where)
		}
		return "Update[" + strings.ToLower(n.Table.Name) + ";" + strings.Join(parts, ",") + w + "]"
	case *plan.LogicalDelete:
		w := ""
		if n.Where != nil {
			w = ";where=" + c.expr(n.Where)
		}
		return "Delete[" + strings.ToLower(n.Table.Name) + w + "]"
	default:
		return fmt.Sprintf("<%T>", l)
	}
}

// physical linearizes a physical plan tree, capturing the operator choice
// and access paths that distinguish execution plans of one template.
func (c *canonicalizer) physical(p plan.Physical) string {
	switch n := p.(type) {
	case *plan.PhysScan:
		return "Scan[" + strings.ToLower(n.Table.Name) + ";" + c.access(n.Access) + "]"
	case *plan.PhysFilter:
		return "Filter[" + c.expr(n.Pred) + "](" + c.physical(n.Child) + ")"
	case *plan.PhysProject:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = c.expr(it.Expr)
		}
		return "Project[" + strings.Join(parts, ",") + "](" + c.physical(n.Child) + ")"
	case *plan.PhysHashJoin:
		keys := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			keys[i] = c.expr(n.LeftKeys[i]) + "=" + c.expr(n.RightKeys[i])
		}
		sort.Strings(keys)
		r := ""
		if n.Residual != nil {
			r = ";res=" + c.expr(n.Residual)
		}
		return "HashJoin[" + strings.Join(keys, ",") + r + "](" + c.physical(n.Left) + "," + c.physical(n.Right) + ")"
	case *plan.PhysIndexNLJoin:
		probes := make([]string, len(n.ProbeExprs))
		for i, pr := range n.ProbeExprs {
			probes[i] = c.expr(pr)
		}
		r := ""
		if n.Residual != nil {
			r = ";res=" + c.expr(n.Residual)
		}
		return "IndexNLJoin[" + strings.ToLower(n.Table.Name) + ";" + n.Index.Name + ";" +
			strings.Join(probes, ",") + r + "](" + c.physical(n.Outer) + ")"
	case *plan.PhysNLJoin:
		on := ""
		if n.On != nil {
			on = c.expr(n.On)
		}
		return "NLJoin[" + on + "](" + c.physical(n.Left) + "," + c.physical(n.Right) + ")"
	case *plan.PhysHashAgg:
		var gs, as []string
		for _, g := range n.GroupBy {
			gs = append(gs, c.expr(g))
		}
		for _, a := range n.Aggs {
			as = append(as, c.expr(a.Func))
		}
		h := ""
		if n.Having != nil {
			h = ";having=" + c.expr(n.Having)
		}
		return "HashAgg[" + strings.Join(gs, ",") + ";" + strings.Join(as, ",") + h + "](" + c.physical(n.Child) + ")"
	case *plan.PhysSort:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = c.expr(it.Expr)
			if it.Desc {
				parts[i] += " DESC"
			}
		}
		return "Sort[" + strings.Join(parts, ",") + "](" + c.physical(n.Child) + ")"
	case *plan.PhysLimit:
		return "Limit[?](" + c.physical(n.Child) + ")"
	case *plan.PhysValues:
		parts := make([]string, len(n.Items))
		for i, it := range n.Items {
			parts[i] = c.expr(it.Expr)
		}
		return "Values[" + strings.Join(parts, ",") + "]"
	case *plan.PhysInsert:
		cols := make([]string, len(n.Columns))
		for i, ord := range n.Columns {
			cols[i] = strconv.Itoa(ord)
		}
		return "Insert[" + strings.ToLower(n.Table.Name) + ";cols=" + strings.Join(cols, ",") + ";rows=?]"
	case *plan.PhysUpdate:
		parts := make([]string, len(n.Sets))
		for i, set := range n.Sets {
			parts[i] = strconv.Itoa(set.Column) + "=" + c.expr(set.Expr)
		}
		return "Update[" + strings.ToLower(n.Table.Name) + ";" + c.access(n.Access) + ";" + strings.Join(parts, ",") + "]"
	case *plan.PhysDelete:
		return "Delete[" + strings.ToLower(n.Table.Name) + ";" + c.access(n.Access) + "]"
	default:
		return fmt.Sprintf("<%T>", p)
	}
}

func (c *canonicalizer) access(a *plan.AccessPath) string {
	if a == nil || a.Index == nil {
		out := "seq"
		if a != nil && a.Residual != nil {
			out += ";res=" + c.expr(a.Residual)
		}
		return out
	}
	var b strings.Builder
	b.WriteString("ix=" + a.Index.Name)
	for _, e := range a.Eq {
		b.WriteString(";eq=" + c.expr(e))
	}
	if a.Lo != nil {
		op := ">"
		if a.LoIncl {
			op = ">="
		}
		b.WriteString(";" + op + c.expr(a.Lo))
	}
	if a.Hi != nil {
		op := "<"
		if a.HiIncl {
			op = "<="
		}
		b.WriteString(";" + op + c.expr(a.Hi))
	}
	if a.Residual != nil {
		b.WriteString(";res=" + c.expr(a.Residual))
	}
	return b.String()
}
