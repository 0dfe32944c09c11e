package engine

import (
	"fmt"

	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Prepared is a server-side prepared statement: one lex and plan lookup,
// many executions with different parameter bindings. The handle shares the
// engine-wide cached plan of its template, so the monitor computes the
// statement's signatures exactly once no matter how many sessions or
// connections prepare it (§4.2's compute-once discipline, extended across
// the wire). A handle belongs to the session that prepared it and follows
// the same single-goroutine contract.
type Prepared struct {
	s   *Session
	sql string
	// tpl is the statement's template: its literals, bound on every
	// execution, and its parameter names in first-appearance order, which
	// wire protocols bind positional values through.
	tpl sqlparser.Template
	cp  *cachedPlan
	gen int64 // engine plan generation the plan was compiled under
}

// Prepare parses and plans one statement for repeated execution.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.leave()
	if s.e.closed.Load() {
		return nil, errClosed
	}
	p := &Prepared{s: s, sql: sql}
	var err error
	if p.tpl, err = sqlparser.Lex(sql); err != nil {
		return nil, err
	}
	if p.cp, p.gen, err = s.e.getPlan(&p.tpl); err != nil {
		return nil, err
	}
	return p, nil
}

// SQL returns the statement text.
func (p *Prepared) SQL() string { return p.sql }

// ParamNames returns the statement's parameter names in first-appearance
// order (without the leading '@').
func (p *Prepared) ParamNames() []string { return append([]string(nil), p.tpl.Params...) }

// Exec runs the prepared statement with the given parameter bindings,
// with the same cancellation semantics as Session.Exec.
func (p *Prepared) Exec(params map[string]sqltypes.Value) (*Result, error) {
	s := p.s
	if err := s.enter(); err != nil {
		return nil, err
	}
	defer s.leave()
	if s.e.closed.Load() {
		return nil, errClosed
	}
	// DDL since Prepare invalidated the plan cache: re-plan against the
	// current schema before executing (the template, not the plan, is the
	// durable part of the handle).
	if s.e.planGen.Load() != p.gen {
		cp, gen, err := s.e.getPlan(&p.tpl)
		if err != nil {
			return nil, fmt.Errorf("engine: re-preparing %q: %w", p.sql, err)
		}
		p.cp, p.gen = cp, gen
	}
	return s.execPlanned(p.cp, p.sql, params, p.tpl.Lits)
}
