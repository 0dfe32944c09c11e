package plan

import (
	"fmt"
	"strings"

	"sqlcm/internal/catalog"
	"sqlcm/internal/sqlparser"
)

// ColMeta describes one output column of a physical operator.
type ColMeta struct {
	Qual string // table alias; empty for computed columns
	Name string
}

// String renders the column for diagnostics.
func (c ColMeta) String() string {
	if c.Qual != "" {
		return c.Qual + "." + c.Name
	}
	return c.Name
}

// Physical is implemented by physical plan nodes.
type Physical interface {
	physicalNode()
	// Schema returns the operator's output columns.
	Schema() []ColMeta
	// Describe renders the node (without children).
	Describe() string
	// PChildren returns child operators.
	PChildren() []Physical
	// EstRows is the optimizer's output-cardinality estimate.
	EstRows() float64
	// EstCost is the cumulative estimated cost of the subtree.
	EstCost() float64
}

// AccessPath describes how a table is read: via an index (equality prefix
// plus optional range bound on the next key column) or a sequential scan
// when Index is nil. Residual is the part of the original predicate not
// covered by the index condition.
type AccessPath struct {
	Index    *catalog.Index
	Eq       []sqlparser.Expr // values for leading index columns (equality)
	Lo, Hi   sqlparser.Expr   // optional range on the column after Eq
	LoIncl   bool
	HiIncl   bool
	Residual sqlparser.Expr
}

// Describe renders the access path.
func (a *AccessPath) Describe() string {
	if a == nil || a.Index == nil {
		if a != nil && a.Residual != nil {
			return "seq residual=" + a.Residual.String()
		}
		return "seq"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "index=%s", a.Index.Name)
	for i, e := range a.Eq {
		fmt.Fprintf(&b, " eq%d=%s", i, e.String())
	}
	if a.Lo != nil {
		op := ">"
		if a.LoIncl {
			op = ">="
		}
		fmt.Fprintf(&b, " %s%s", op, a.Lo.String())
	}
	if a.Hi != nil {
		op := "<"
		if a.HiIncl {
			op = "<="
		}
		fmt.Fprintf(&b, " %s%s", op, a.Hi.String())
	}
	if a.Residual != nil {
		fmt.Fprintf(&b, " residual=%s", a.Residual.String())
	}
	return b.String()
}

func tableSchema(t *catalog.Table, alias string) []ColMeta {
	out := make([]ColMeta, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = ColMeta{Qual: alias, Name: c.Name}
	}
	return out
}

// PhysScan reads a table via its access path (index or sequential).
type PhysScan struct {
	Table  *catalog.Table
	Alias  string
	Access *AccessPath
	Rows   float64
	Cost   float64
}

func (*PhysScan) physicalNode() {}

// Schema implements Physical.
func (s *PhysScan) Schema() []ColMeta { return tableSchema(s.Table, s.Alias) }

// Describe implements Physical.
func (s *PhysScan) Describe() string {
	return fmt.Sprintf("Scan(%s AS %s, %s)", s.Table.Name, s.Alias, s.Access.Describe())
}

// PChildren implements Physical.
func (s *PhysScan) PChildren() []Physical { return nil }

// EstRows implements Physical.
func (s *PhysScan) EstRows() float64 { return s.Rows }

// EstCost implements Physical.
func (s *PhysScan) EstCost() float64 { return s.Cost }

// PhysFilter applies a predicate.
type PhysFilter struct {
	Pred  sqlparser.Expr
	Child Physical
	Rows  float64
	Cost  float64
}

func (*PhysFilter) physicalNode() {}

// Schema implements Physical.
func (f *PhysFilter) Schema() []ColMeta { return f.Child.Schema() }

// Describe implements Physical.
func (f *PhysFilter) Describe() string { return "Filter(" + f.Pred.String() + ")" }

// PChildren implements Physical.
func (f *PhysFilter) PChildren() []Physical { return []Physical{f.Child} }

// EstRows implements Physical.
func (f *PhysFilter) EstRows() float64 { return f.Rows }

// EstCost implements Physical.
func (f *PhysFilter) EstCost() float64 { return f.Cost }

// PhysProject computes output expressions.
type PhysProject struct {
	Items []ProjItem
	Child Physical
	Cost  float64
}

func (*PhysProject) physicalNode() {}

// Schema implements Physical. An unaliased column keeps the qualifier of
// the column it projects, so ORDER BY above the projection resolves t.k
// the way the projection did.
func (p *PhysProject) Schema() []ColMeta {
	out := make([]ColMeta, len(p.Items))
	var in []ColMeta
	for i, it := range p.Items {
		out[i] = ColMeta{Name: it.Name}
		c, ok := it.Expr.(*sqlparser.ColumnRef)
		if !ok || c.Column != it.Name {
			continue
		}
		out[i].Qual = c.Table
		if c.Table == "" {
			if in == nil {
				in = p.Child.Schema()
			}
			for _, m := range in {
				if m.Name == c.Column {
					out[i].Qual = m.Qual
				}
			}
		}
	}
	return out
}

// Describe implements Physical.
func (p *PhysProject) Describe() string {
	parts := make([]string, len(p.Items))
	for i, it := range p.Items {
		parts[i] = it.Expr.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// PChildren implements Physical.
func (p *PhysProject) PChildren() []Physical { return []Physical{p.Child} }

// EstRows implements Physical.
func (p *PhysProject) EstRows() float64 { return p.Child.EstRows() }

// EstCost implements Physical.
func (p *PhysProject) EstCost() float64 { return p.Cost }

// PhysHashJoin is an equi hash join (build = right, probe = left).
type PhysHashJoin struct {
	Left, Right Physical
	LeftKeys    []sqlparser.Expr
	RightKeys   []sqlparser.Expr
	Residual    sqlparser.Expr
	Rows        float64
	Cost        float64
}

func (*PhysHashJoin) physicalNode() {}

// Schema implements Physical.
func (j *PhysHashJoin) Schema() []ColMeta {
	return append(append([]ColMeta{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Describe implements Physical.
func (j *PhysHashJoin) Describe() string {
	parts := make([]string, len(j.LeftKeys))
	for i := range j.LeftKeys {
		parts[i] = j.LeftKeys[i].String() + "=" + j.RightKeys[i].String()
	}
	return "HashJoin(" + strings.Join(parts, " AND ") + ")"
}

// PChildren implements Physical.
func (j *PhysHashJoin) PChildren() []Physical { return []Physical{j.Left, j.Right} }

// EstRows implements Physical.
func (j *PhysHashJoin) EstRows() float64 { return j.Rows }

// EstCost implements Physical.
func (j *PhysHashJoin) EstCost() float64 { return j.Cost }

// PhysIndexNLJoin probes the inner table's index once per outer row.
type PhysIndexNLJoin struct {
	Outer      Physical
	Table      *catalog.Table
	Alias      string
	Index      *catalog.Index
	ProbeExprs []sqlparser.Expr // evaluated against outer rows; key prefix
	Residual   sqlparser.Expr
	Rows       float64
	Cost       float64
}

func (*PhysIndexNLJoin) physicalNode() {}

// Schema implements Physical.
func (j *PhysIndexNLJoin) Schema() []ColMeta {
	return append(append([]ColMeta{}, j.Outer.Schema()...), tableSchema(j.Table, j.Alias)...)
}

// Describe implements Physical.
func (j *PhysIndexNLJoin) Describe() string {
	parts := make([]string, len(j.ProbeExprs))
	for i, e := range j.ProbeExprs {
		parts[i] = e.String()
	}
	return fmt.Sprintf("IndexNLJoin(%s AS %s via %s on %s)", j.Table.Name, j.Alias, j.Index.Name, strings.Join(parts, ", "))
}

// PChildren implements Physical.
func (j *PhysIndexNLJoin) PChildren() []Physical { return []Physical{j.Outer} }

// EstRows implements Physical.
func (j *PhysIndexNLJoin) EstRows() float64 { return j.Rows }

// EstCost implements Physical.
func (j *PhysIndexNLJoin) EstCost() float64 { return j.Cost }

// PhysNLJoin is the fallback nested-loop join with a materialized inner.
type PhysNLJoin struct {
	Left, Right Physical
	On          sqlparser.Expr
	Rows        float64
	Cost        float64
}

func (*PhysNLJoin) physicalNode() {}

// Schema implements Physical.
func (j *PhysNLJoin) Schema() []ColMeta {
	return append(append([]ColMeta{}, j.Left.Schema()...), j.Right.Schema()...)
}

// Describe implements Physical.
func (j *PhysNLJoin) Describe() string {
	on := "TRUE"
	if j.On != nil {
		on = j.On.String()
	}
	return "NLJoin(" + on + ")"
}

// PChildren implements Physical.
func (j *PhysNLJoin) PChildren() []Physical { return []Physical{j.Left, j.Right} }

// EstRows implements Physical.
func (j *PhysNLJoin) EstRows() float64 { return j.Rows }

// EstCost implements Physical.
func (j *PhysNLJoin) EstCost() float64 { return j.Cost }

// PhysHashAgg groups rows in a hash table and computes aggregates. Output
// columns are the group-by expressions followed by the aggregates.
type PhysHashAgg struct {
	GroupBy []sqlparser.Expr
	Aggs    []AggSpec
	Having  sqlparser.Expr
	Child   Physical
	Rows    float64
	Cost    float64
}

func (*PhysHashAgg) physicalNode() {}

// Schema implements Physical.
func (a *PhysHashAgg) Schema() []ColMeta {
	out := make([]ColMeta, 0, len(a.GroupBy)+len(a.Aggs))
	for _, g := range a.GroupBy {
		if c, ok := g.(*sqlparser.ColumnRef); ok {
			out = append(out, ColMeta{Qual: c.Table, Name: c.Column})
		} else {
			out = append(out, ColMeta{Name: g.String()})
		}
	}
	for _, ag := range a.Aggs {
		out = append(out, ColMeta{Name: ag.Name})
	}
	return out
}

// Describe implements Physical.
func (a *PhysHashAgg) Describe() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	for _, ag := range a.Aggs {
		parts = append(parts, ag.Func.String())
	}
	return "HashAgg(" + strings.Join(parts, ", ") + ")"
}

// PChildren implements Physical.
func (a *PhysHashAgg) PChildren() []Physical { return []Physical{a.Child} }

// EstRows implements Physical.
func (a *PhysHashAgg) EstRows() float64 { return a.Rows }

// EstCost implements Physical.
func (a *PhysHashAgg) EstCost() float64 { return a.Cost }

// PhysSort orders rows in memory.
type PhysSort struct {
	Items []sqlparser.OrderItem
	Child Physical
	Cost  float64
}

func (*PhysSort) physicalNode() {}

// Schema implements Physical.
func (s *PhysSort) Schema() []ColMeta { return s.Child.Schema() }

// Describe implements Physical.
func (s *PhysSort) Describe() string {
	parts := make([]string, len(s.Items))
	for i, it := range s.Items {
		d := it.Expr.String()
		if it.Desc {
			d += " DESC"
		}
		parts[i] = d
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// PChildren implements Physical.
func (s *PhysSort) PChildren() []Physical { return []Physical{s.Child} }

// EstRows implements Physical.
func (s *PhysSort) EstRows() float64 { return s.Child.EstRows() }

// EstCost implements Physical.
func (s *PhysSort) EstCost() float64 { return s.Cost }

// PhysLimit truncates output.
type PhysLimit struct {
	N     int64
	Child Physical
}

func (*PhysLimit) physicalNode() {}

// Schema implements Physical.
func (l *PhysLimit) Schema() []ColMeta { return l.Child.Schema() }

// Describe implements Physical.
func (l *PhysLimit) Describe() string { return fmt.Sprintf("Limit(%d)", l.N) }

// PChildren implements Physical.
func (l *PhysLimit) PChildren() []Physical { return []Physical{l.Child} }

// EstRows implements Physical.
func (l *PhysLimit) EstRows() float64 {
	r := l.Child.EstRows()
	if float64(l.N) < r {
		return float64(l.N)
	}
	return r
}

// EstCost implements Physical.
func (l *PhysLimit) EstCost() float64 { return l.Child.EstCost() }

// PhysInsert inserts literal rows.
type PhysInsert struct {
	Table   *catalog.Table
	Columns []int
	RowsSrc [][]sqlparser.Expr
}

func (*PhysInsert) physicalNode() {}

// Schema implements Physical.
func (i *PhysInsert) Schema() []ColMeta { return nil }

// Describe implements Physical.
func (i *PhysInsert) Describe() string {
	return fmt.Sprintf("Insert(%s, %d rows)", i.Table.Name, len(i.RowsSrc))
}

// PChildren implements Physical.
func (i *PhysInsert) PChildren() []Physical { return nil }

// EstRows implements Physical.
func (i *PhysInsert) EstRows() float64 { return 0 }

// EstCost implements Physical.
func (i *PhysInsert) EstCost() float64 { return float64(len(i.RowsSrc)) }

// PhysUpdate updates rows found via the access path.
type PhysUpdate struct {
	Table  *catalog.Table
	Access *AccessPath
	Sets   []UpdateSet
	Rows   float64
	Cost   float64
}

func (*PhysUpdate) physicalNode() {}

// Schema implements Physical.
func (u *PhysUpdate) Schema() []ColMeta { return nil }

// Describe implements Physical.
func (u *PhysUpdate) Describe() string {
	return fmt.Sprintf("Update(%s, %s)", u.Table.Name, u.Access.Describe())
}

// PChildren implements Physical.
func (u *PhysUpdate) PChildren() []Physical { return nil }

// EstRows implements Physical.
func (u *PhysUpdate) EstRows() float64 { return u.Rows }

// EstCost implements Physical.
func (u *PhysUpdate) EstCost() float64 { return u.Cost }

// PhysDelete deletes rows found via the access path.
type PhysDelete struct {
	Table  *catalog.Table
	Access *AccessPath
	Rows   float64
	Cost   float64
}

func (*PhysDelete) physicalNode() {}

// Schema implements Physical.
func (d *PhysDelete) Schema() []ColMeta { return nil }

// Describe implements Physical.
func (d *PhysDelete) Describe() string {
	return fmt.Sprintf("Delete(%s, %s)", d.Table.Name, d.Access.Describe())
}

// PChildren implements Physical.
func (d *PhysDelete) PChildren() []Physical { return nil }

// EstRows implements Physical.
func (d *PhysDelete) EstRows() float64 { return d.Rows }

// EstCost implements Physical.
func (d *PhysDelete) EstCost() float64 { return d.Cost }

// PhysValues emits a single row of computed expressions (SELECT w/o FROM).
type PhysValues struct {
	Items []ProjItem
}

func (*PhysValues) physicalNode() {}

// Schema implements Physical.
func (v *PhysValues) Schema() []ColMeta {
	out := make([]ColMeta, len(v.Items))
	for i, it := range v.Items {
		out[i] = ColMeta{Name: it.Name}
	}
	return out
}

// Describe implements Physical.
func (v *PhysValues) Describe() string { return "Values(1 row)" }

// PChildren implements Physical.
func (v *PhysValues) PChildren() []Physical { return nil }

// EstRows implements Physical.
func (v *PhysValues) EstRows() float64 { return 1 }

// EstCost implements Physical.
func (v *PhysValues) EstCost() float64 { return 0.01 }

// DescribePhysical renders a physical plan tree, one node per line.
func DescribePhysical(p Physical) string {
	var b strings.Builder
	var walk func(n Physical, depth int)
	walk = func(n Physical, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteString("\n")
		for _, c := range n.PChildren() {
			walk(c, depth+1)
		}
	}
	walk(p, 0)
	return b.String()
}
