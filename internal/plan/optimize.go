package plan

import (
	"fmt"

	"sqlcm/internal/catalog"
	"sqlcm/internal/sqlparser"
)

// Cost-model constants: abstract units roughly proportional to work.
const (
	costPageIO      = 4.0  // fetching a heap page
	costRowCPU      = 0.01 // examining one row
	costIndexProbe  = 0.5  // one B+tree descent
	costHashRow     = 0.02 // hashing a row (build or probe)
	costSortRowLogN = 0.02 // per row per log2(n)
	rowsPerPage     = 50.0

	defaultEqSelectivity    = 0.01
	defaultRangeSelectivity = 0.10
	defaultPredSelectivity  = 0.25
)

// Optimize turns a logical plan into a physical plan using table statistics
// from the catalog.
func Optimize(l Logical, cat *catalog.Catalog) (Physical, error) {
	o := &optimizer{cat: cat}
	return o.physical(l, nil)
}

type optimizer struct {
	cat *catalog.Catalog
}

// scopeOf collects (alias -> table) pairs for every scan in the subtree.
func scopeOf(l Logical) map[string]*catalog.Table {
	out := map[string]*catalog.Table{}
	var walk func(n Logical)
	walk = func(n Logical) {
		if s, ok := n.(*LogicalScan); ok {
			out[s.Alias] = s.Table
		}
		for _, c := range n.Children() {
			walk(c)
		}
	}
	walk(l)
	return out
}

// splitConjuncts flattens a predicate's AND tree.
func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if l, ok := e.(*sqlparser.Logic); ok && l.Op == sqlparser.LogicAnd {
		return append(splitConjuncts(l.Left), splitConjuncts(l.Right)...)
	}
	return []sqlparser.Expr{e}
}

// combineConjuncts rebuilds an AND tree (nil for an empty list).
func combineConjuncts(cs []sqlparser.Expr) sqlparser.Expr {
	var out sqlparser.Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &sqlparser.Logic{Op: sqlparser.LogicAnd, Left: out, Right: c}
		}
	}
	return out
}

// exprAliases returns the set of table aliases an expression references,
// resolving unqualified column names through the scope. Returns an error
// for unknown or ambiguous columns.
func exprAliases(e sqlparser.Expr, scope map[string]*catalog.Table) (map[string]bool, error) {
	out := map[string]bool{}
	var walkErr error
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		c, ok := x.(*sqlparser.ColumnRef)
		if !ok || walkErr != nil {
			return
		}
		if c.Table != "" {
			if _, ok := scope[c.Table]; !ok {
				walkErr = fmt.Errorf("plan: unknown table alias %q", c.Table)
				return
			}
			out[c.Table] = true
			return
		}
		var found string
		for alias, t := range scope {
			if t.ColumnIndex(c.Column) >= 0 {
				if found != "" {
					walkErr = fmt.Errorf("plan: ambiguous column %q", c.Column)
					return
				}
				found = alias
			}
		}
		if found == "" {
			walkErr = fmt.Errorf("plan: unknown column %q", c.Column)
			return
		}
		out[found] = true
	})
	return out, walkErr
}

func subset(a, b map[string]bool) bool {
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// columnFree reports whether e references no columns (only literals,
// params, arithmetic).
func columnFree(e sqlparser.Expr) bool {
	free := true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if _, ok := x.(*sqlparser.ColumnRef); ok {
			free = false
		}
	})
	return free
}

func (o *optimizer) physical(l Logical, conjuncts []sqlparser.Expr) (Physical, error) {
	switch n := l.(type) {
	case *LogicalScan:
		return o.physicalScan(n, conjuncts), nil

	case *LogicalFilter:
		return o.physical(n.Child, append(conjuncts, splitConjuncts(n.Pred)...))

	case *LogicalJoin:
		return o.physicalJoin(n, conjuncts)

	case *LogicalProject:
		if n.Child == nil {
			items := make([]ProjItem, len(n.Items))
			copy(items, n.Items)
			return &PhysValues{Items: items}, nil
		}
		child, err := o.physical(n.Child, conjuncts)
		if err != nil {
			return nil, err
		}
		items, err := expandStars(n.Items, child.Schema())
		if err != nil {
			return nil, err
		}
		return &PhysProject{
			Items: items,
			Child: child,
			Cost:  child.EstCost() + child.EstRows()*costRowCPU,
		}, nil

	case *LogicalAgg:
		child, err := o.physical(n.Child, conjuncts)
		if err != nil {
			return nil, err
		}
		rows := child.EstRows() * 0.1
		if len(n.GroupBy) == 0 {
			rows = 1
		}
		if rows < 1 {
			rows = 1
		}
		return &PhysHashAgg{
			GroupBy: n.GroupBy,
			Aggs:    n.Aggs,
			Having:  n.Having,
			Child:   child,
			Rows:    rows,
			Cost:    child.EstCost() + child.EstRows()*costHashRow,
		}, nil

	case *LogicalSort:
		child, err := o.physical(n.Child, conjuncts)
		if err != nil {
			return nil, err
		}
		rows := child.EstRows()
		logN := 1.0
		for x := rows; x > 2; x /= 2 {
			logN++
		}
		return &PhysSort{
			Items: n.Items,
			Child: child,
			Cost:  child.EstCost() + rows*logN*costSortRowLogN,
		}, nil

	case *LogicalLimit:
		child, err := o.physical(n.Child, conjuncts)
		if err != nil {
			return nil, err
		}
		return &PhysLimit{N: n.N, Child: child}, nil

	case *LogicalInsert:
		return &PhysInsert{Table: n.Table, Columns: n.Columns, RowsSrc: n.Rows}, nil

	case *LogicalUpdate:
		access, rows, cost := o.chooseAccess(n.Table, n.Table.Name, splitConjuncts(n.Where))
		return &PhysUpdate{Table: n.Table, Access: access, Sets: n.Sets, Rows: rows, Cost: cost + rows}, nil

	case *LogicalDelete:
		access, rows, cost := o.chooseAccess(n.Table, n.Table.Name, splitConjuncts(n.Where))
		return &PhysDelete{Table: n.Table, Access: access, Rows: rows, Cost: cost + rows}, nil

	default:
		return nil, fmt.Errorf("plan: cannot optimize %T", l)
	}
}

// expandStars replaces "*" marker items with one item per child column.
func expandStars(items []ProjItem, schema []ColMeta) ([]ProjItem, error) {
	out := make([]ProjItem, 0, len(items))
	for _, it := range items {
		if it.Expr == nil && it.Name == "*" {
			for _, c := range schema {
				out = append(out, ProjItem{
					Expr: &sqlparser.ColumnRef{Table: c.Qual, Column: c.Name},
					Name: c.Name,
				})
			}
			continue
		}
		if it.Expr == nil {
			return nil, fmt.Errorf("plan: projection item %q has no expression", it.Name)
		}
		out = append(out, it)
	}
	return out, nil
}

func (o *optimizer) physicalScan(s *LogicalScan, conjuncts []sqlparser.Expr) *PhysScan {
	access, rows, cost := o.chooseAccess(s.Table, s.Alias, conjuncts)
	return &PhysScan{Table: s.Table, Alias: s.Alias, Access: access, Rows: rows, Cost: cost}
}

// sarg describes a sargable conjunct on a column.
type sarg struct {
	col  int
	op   sqlparser.CmpOp
	val  sqlparser.Expr
	orig sqlparser.Expr
}

// sargOf recognizes `col op value` / `value op col` with a column of the
// given table/alias on one side and a column-free expression on the other.
func sargOf(e sqlparser.Expr, t *catalog.Table, alias string) (sarg, bool) {
	cmp, ok := e.(*sqlparser.Comparison)
	if !ok || cmp.Op == sqlparser.CmpNe {
		return sarg{}, false
	}
	try := func(colSide, valSide sqlparser.Expr, op sqlparser.CmpOp) (sarg, bool) {
		c, ok := colSide.(*sqlparser.ColumnRef)
		if !ok {
			return sarg{}, false
		}
		if c.Table != "" && c.Table != alias {
			return sarg{}, false
		}
		ord := t.ColumnIndex(c.Column)
		if ord < 0 || !columnFree(valSide) {
			return sarg{}, false
		}
		return sarg{col: ord, op: op, val: valSide, orig: e}, true
	}
	if s, ok := try(cmp.Left, cmp.Right, cmp.Op); ok {
		return s, true
	}
	// Mirror the operator for value-op-column form.
	mirror := map[sqlparser.CmpOp]sqlparser.CmpOp{
		sqlparser.CmpEq: sqlparser.CmpEq,
		sqlparser.CmpLt: sqlparser.CmpGt,
		sqlparser.CmpLe: sqlparser.CmpGe,
		sqlparser.CmpGt: sqlparser.CmpLt,
		sqlparser.CmpGe: sqlparser.CmpLe,
	}
	return try(cmp.Right, cmp.Left, mirror[cmp.Op])
}

// chooseAccess selects the best access path for reading table (as alias)
// under the given conjuncts, returning the path, the estimated output rows
// and the estimated cost.
func (o *optimizer) chooseAccess(t *catalog.Table, alias string, conjuncts []sqlparser.Expr) (*AccessPath, float64, float64) {
	stats := o.cat.Stats(t.Name)
	tableRows := float64(stats.RowCount)
	if tableRows < 1 {
		tableRows = 1
	}

	var sargs []sarg
	for _, c := range conjuncts {
		if s, ok := sargOf(c, t, alias); ok {
			sargs = append(sargs, s)
		}
	}

	type candidate struct {
		access *AccessPath
		rows   float64
		cost   float64
	}
	// Baseline: sequential scan with everything residual.
	best := candidate{
		access: &AccessPath{Residual: combineConjuncts(conjuncts)},
		rows:   estimateRows(tableRows, conjuncts),
		cost:   tableRows/rowsPerPage*costPageIO + tableRows*costRowCPU,
	}

	for _, ix := range t.Indexes() {
		used := map[sqlparser.Expr]bool{}
		var eq []sqlparser.Expr
		matched := 0
		for _, colOrd := range ix.Columns {
			var hit *sarg
			for i := range sargs {
				if sargs[i].col == colOrd && sargs[i].op == sqlparser.CmpEq && !used[sargs[i].orig] {
					hit = &sargs[i]
					break
				}
			}
			if hit == nil {
				break
			}
			used[hit.orig] = true
			eq = append(eq, hit.val)
			matched++
		}
		var lo, hi sqlparser.Expr
		var loIncl, hiIncl bool
		if matched < len(ix.Columns) {
			next := ix.Columns[matched]
			for i := range sargs {
				s := &sargs[i]
				if s.col != next || used[s.orig] {
					continue
				}
				switch s.op {
				case sqlparser.CmpGt:
					if lo == nil {
						lo, loIncl = s.val, false
						used[s.orig] = true
					}
				case sqlparser.CmpGe:
					if lo == nil {
						lo, loIncl = s.val, true
						used[s.orig] = true
					}
				case sqlparser.CmpLt:
					if hi == nil {
						hi, hiIncl = s.val, false
						used[s.orig] = true
					}
				case sqlparser.CmpLe:
					if hi == nil {
						hi, hiIncl = s.val, true
						used[s.orig] = true
					}
				}
			}
		}
		if matched == 0 && lo == nil && hi == nil {
			continue
		}
		var residual []sqlparser.Expr
		for _, c := range conjuncts {
			if !used[c] {
				residual = append(residual, c)
			}
		}
		var rows float64
		switch {
		case ix.Unique && matched == len(ix.Columns):
			rows = 1
		case matched > 0:
			rows = tableRows * defaultEqSelectivity
		default:
			rows = tableRows * defaultRangeSelectivity
		}
		if lo != nil || hi != nil {
			rows *= defaultRangeSelectivity / defaultEqSelectivity * defaultEqSelectivity
			if matched == 0 {
				rows = tableRows * defaultRangeSelectivity
			}
		}
		if rows < 1 {
			rows = 1
		}
		rows = estimateRows(rows, residual) // residual filtering
		cost := costIndexProbe + rows*(costPageIO/rowsPerPage+costRowCPU)
		if cost < best.cost {
			best = candidate{
				access: &AccessPath{
					Index:    ix,
					Eq:       eq,
					Lo:       lo,
					Hi:       hi,
					LoIncl:   loIncl,
					HiIncl:   hiIncl,
					Residual: combineConjuncts(residual),
				},
				rows: rows,
				cost: cost,
			}
		}
	}
	return best.access, best.rows, best.cost
}

// estimateRows applies default selectivities for each conjunct.
func estimateRows(rows float64, conjuncts []sqlparser.Expr) float64 {
	for _, c := range conjuncts {
		if cmp, ok := c.(*sqlparser.Comparison); ok {
			if cmp.Op == sqlparser.CmpEq {
				rows *= defaultEqSelectivity
			} else {
				rows *= defaultRangeSelectivity
			}
			continue
		}
		rows *= defaultPredSelectivity
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func (o *optimizer) physicalJoin(j *LogicalJoin, conjuncts []sqlparser.Expr) (Physical, error) {
	rightScan, ok := j.Right.(*LogicalScan)
	if !ok {
		return nil, fmt.Errorf("plan: join right side must be a base table")
	}
	fullScope := scopeOf(j)
	leftScope := scopeOf(j.Left)
	rightAlias := rightScan.Alias

	all := append(append([]sqlparser.Expr{}, conjuncts...), splitConjuncts(j.On)...)
	var leftOnly, rightOnly, cross []sqlparser.Expr
	for _, c := range all {
		refs, err := exprAliases(c, fullScope)
		if err != nil {
			return nil, err
		}
		leftRefs := map[string]bool{}
		rightRef := false
		for a := range refs {
			if a == rightAlias {
				rightRef = true
			} else if _, ok := leftScope[a]; ok {
				leftRefs[a] = true
			}
		}
		switch {
		case !rightRef:
			leftOnly = append(leftOnly, c)
		case len(leftRefs) == 0:
			rightOnly = append(rightOnly, c)
		default:
			cross = append(cross, c)
		}
	}

	left, err := o.physical(j.Left, leftOnly)
	if err != nil {
		return nil, err
	}

	// Extract equi pairs from cross conjuncts.
	var leftKeys, rightKeys []sqlparser.Expr
	var residualCross []sqlparser.Expr
	for _, c := range cross {
		cmp, ok := c.(*sqlparser.Comparison)
		if !ok || cmp.Op != sqlparser.CmpEq {
			residualCross = append(residualCross, c)
			continue
		}
		lRefs, err := exprAliases(cmp.Left, fullScope)
		if err != nil {
			return nil, err
		}
		rRefs, err := exprAliases(cmp.Right, fullScope)
		if err != nil {
			return nil, err
		}
		switch {
		case !lRefs[rightAlias] && rRefs[rightAlias] && len(rRefs) == 1:
			leftKeys = append(leftKeys, cmp.Left)
			rightKeys = append(rightKeys, cmp.Right)
		case !rRefs[rightAlias] && lRefs[rightAlias] && len(lRefs) == 1:
			leftKeys = append(leftKeys, cmp.Right)
			rightKeys = append(rightKeys, cmp.Left)
		default:
			residualCross = append(residualCross, c)
		}
	}

	rightStats := o.cat.Stats(rightScan.Table.Name)
	rightRows := float64(rightStats.RowCount)
	if rightRows < 1 {
		rightRows = 1
	}

	// Index nested loop: the right column of some equi pair is the leading
	// column of an index on the inner table.
	if len(leftKeys) > 0 {
		for _, ix := range rightScan.Table.Indexes() {
			probe := matchIndexProbe(ix, leftKeys, rightKeys, rightScan.Table, rightAlias)
			if probe == nil {
				continue
			}
			// Unmatched equi pairs become residual.
			residual := append([]sqlparser.Expr{}, residualCross...)
			residual = append(residual, rightOnly...)
			for i := range leftKeys {
				if !containsExpr(probe.usedRight, rightKeys[i]) {
					residual = append(residual, &sqlparser.Comparison{
						Op: sqlparser.CmpEq, Left: leftKeys[i], Right: rightKeys[i],
					})
				}
			}
			matchRows := rightRows * defaultEqSelectivity
			if ix.Unique && len(probe.probes) == len(ix.Columns) {
				matchRows = 1
			}
			rows := left.EstRows() * matchRows
			if rows < 1 {
				rows = 1
			}
			return &PhysIndexNLJoin{
				Outer:      left,
				Table:      rightScan.Table,
				Alias:      rightAlias,
				Index:      ix,
				ProbeExprs: probe.probes,
				Residual:   combineConjuncts(residual),
				Rows:       rows,
				Cost:       left.EstCost() + left.EstRows()*(costIndexProbe+matchRows*costRowCPU),
			}, nil
		}
	}

	// Hash join (build = right with its pushed-down predicate).
	if len(leftKeys) > 0 {
		right := o.physicalScan(rightScan, rightOnly)
		rows := left.EstRows() * right.EstRows() * defaultEqSelectivity
		if rows < 1 {
			rows = 1
		}
		return &PhysHashJoin{
			Left:      left,
			Right:     right,
			LeftKeys:  leftKeys,
			RightKeys: rightKeys,
			Residual:  combineConjuncts(residualCross),
			Rows:      rows,
			Cost:      left.EstCost() + right.EstCost() + (left.EstRows()+right.EstRows())*costHashRow,
		}, nil
	}

	// Fallback: nested loop over a materialized inner.
	right := o.physicalScan(rightScan, rightOnly)
	on := combineConjuncts(residualCross)
	rows := left.EstRows() * right.EstRows() * defaultPredSelectivity
	if on == nil {
		rows = left.EstRows() * right.EstRows()
	}
	if rows < 1 {
		rows = 1
	}
	return &PhysNLJoin{
		Left:  left,
		Right: right,
		On:    on,
		Rows:  rows,
		Cost:  left.EstCost() + right.EstCost() + left.EstRows()*right.EstRows()*costRowCPU,
	}, nil
}

type indexProbe struct {
	probes    []sqlparser.Expr // outer-side expressions, one per index column prefix
	usedRight []sqlparser.Expr
}

// matchIndexProbe matches equi-join key pairs (leftKeys[i] = rightKeys[i])
// to a prefix of the index columns: rightKeys[i] must be a plain column of
// the inner table equal to the index column, and the matching outer-side
// expression leftKeys[i] becomes the probe for that key column.
func matchIndexProbe(ix *catalog.Index, leftKeys, rightKeys []sqlparser.Expr, t *catalog.Table, alias string) *indexProbe {
	p := &indexProbe{}
	usedIdx := map[int]bool{}
	for _, colOrd := range ix.Columns {
		found := false
		for i, rk := range rightKeys {
			if usedIdx[i] {
				continue
			}
			c, ok := rk.(*sqlparser.ColumnRef)
			if !ok {
				continue
			}
			if c.Table != "" && c.Table != alias {
				continue
			}
			if t.ColumnIndex(c.Column) == colOrd {
				usedIdx[i] = true
				p.usedRight = append(p.usedRight, rk)
				p.probes = append(p.probes, leftKeys[i])
				found = true
				break
			}
		}
		if !found {
			break
		}
	}
	if len(p.probes) == 0 {
		return nil
	}
	return p
}

func containsExpr(list []sqlparser.Expr, e sqlparser.Expr) bool {
	for _, x := range list {
		if x == e {
			return true
		}
	}
	return false
}
