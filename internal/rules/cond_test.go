package rules

import "sqlcm/internal/sqlparser"

// evalCond compiles and evaluates a rule condition against a context, the
// way Dispatch evaluates a registered rule's precompiled one.
func (e *Engine) evalCond(cond sqlparser.Expr, ctx *Ctx) (bool, error) {
	fn, err := compileCond(cond)
	if err != nil {
		return false, err
	}
	if fn == nil {
		return true, nil
	}
	return e.runCond(fn, ctx)
}

// runCond evaluates a compiled condition against a context.
func (e *Engine) runCond(c cond, ctx *Ctx) (bool, error) {
	return (&evalState{eng: e, ctx: ctx}).holds(c)
}
