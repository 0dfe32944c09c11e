// Package rules implements SQLCM's ECA rule engine (§5): declarative
// Event-Condition-Action rules evaluated synchronously in the thread that
// raised the event, in fixed rule order, with conditions over monitored
// object attributes and LAT columns, and a small set of actions (Insert,
// Reset, Persist, SendMail, RunExternal, Cancel, Set).
package rules

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/sqlparser"
	"sqlcm/internal/sqltypes"
)

// Ctx is the evaluation context of one rule invocation: the monitored
// objects in scope, keyed by class. A Ctx handed to an Action is valid
// only for the call: Dispatch reuses it for the next event.
type Ctx struct {
	Objects map[string]monitor.Object
	// Primary is the object bound by the rule's event clause; unqualified
	// and LAT-grouping attribute references resolve against it.
	Primary monitor.Object
	// get is Attr bound once: the getter every LAT insert and lookup of
	// this context shares.
	get lat.AttrGetter
}

// getter returns Attr as a lat.AttrGetter.
func (c *Ctx) getter() lat.AttrGetter {
	if c.get == nil {
		c.get = c.Attr
	}
	return c.get
}

// Object returns the in-context object of a class.
func (c *Ctx) Object(class string) (monitor.Object, bool) {
	o, ok := c.Objects[class]
	return o, ok
}

// Attr resolves an attribute reference: "Class.Name" against the class
// object, a bare name against the primary object.
func (c *Ctx) Attr(ref string) (sqltypes.Value, bool) {
	if class, name, ok := strings.Cut(ref, "."); ok {
		if o, found := c.Objects[class]; found {
			return o.Get(name)
		}
		return sqltypes.Null, false
	}
	if c.Primary == nil {
		return sqltypes.Null, false
	}
	return c.Primary.Get(ref)
}

// Env supplies the engine-side capabilities actions need. The core package
// implements it over the database engine.
type Env interface {
	// LAT resolves a registered aggregation table.
	LAT(name string) (*lat.Table, bool)
	// Persist writes one row (with a timestamp column appended) to an
	// engine table, creating the table on first use.
	Persist(table string, cols []string, kinds []sqltypes.Kind, row []sqltypes.Value) error
	// SendMail delivers a notification.
	SendMail(addr, body string) error
	// RunExternal launches an external command.
	RunExternal(cmd string) error
	// CancelQuery cancels a statement by id.
	CancelQuery(id int64) bool
	// SetTimer arms a named timer (§5.3 Set action): count alarms of the
	// given period; count 0 disables, negative repeats forever.
	SetTimer(name string, period time.Duration, count int) error
	// ActiveQueryObjects returns all live Query objects (for rules whose
	// condition references a class the event does not bind).
	ActiveQueryObjects() []monitor.Object
	// BlockPairObjects returns current (Blocker, Blocked) object pairs
	// from the lock-wait graph.
	BlockPairObjects() [][2]monitor.Object
}

// Action is one step of a rule's action list.
type Action interface {
	// Run executes the action; errors are recorded but do not stop later
	// actions or corrupt rule ordering.
	Run(env Env, ctx *Ctx) error
	// Describe renders the action for diagnostics.
	Describe() string
}

// Rule is one ECA rule.
type Rule struct {
	Name      string
	Event     monitor.Event
	Condition sqlparser.Expr // nil = always true
	// Source is the condition text the rule was declared with ("" for a
	// rule built in code); static analysis positions findings in it.
	Source  string
	Actions []Action

	enabled atomic.Bool
	// quarantined marks a rule removed from dispatch after repeated
	// panicking evaluations (see failsafe.go); distinct from enabled so an
	// operator toggle does not silently clear a health-based removal.
	quarantined atomic.Bool
	// consecFails counts consecutive panicking evaluations.
	consecFails atomic.Int32
	// cond is the condition compiled at registration time.
	cond cond
	// classes referenced by the condition but not bound by the event; the
	// engine iterates over all live objects of these classes (§5.2).
	freeClasses []string
	// canon memoises CanonicalCondition.
	canonOnce sync.Once
	canon     string
}

// CanonicalCondition renders the condition canonically ("" for none),
// once per rule. The parser's String() fully parenthesizes, so equal
// renderings are equal conditions up to literal spelling.
func (r *Rule) CanonicalCondition() string {
	r.canonOnce.Do(func() {
		if r.Condition != nil {
			r.canon = r.Condition.String()
		}
	})
	return r.canon
}

// Enabled reports whether the rule participates in dispatch.
func (r *Rule) Enabled() bool { return r.enabled.Load() }

// SetEnabled toggles the rule (rules can be turned on/off dynamically, §3).
func (r *Rule) SetEnabled(v bool) { r.enabled.Store(v) }

// ruleIndex is an immutable snapshot of the registered rule set. Readers
// load it through an atomic pointer and never take a lock; writers rebuild
// a fresh index and publish it (copy-on-write). The per-event dispatch
// lists preserve registration order (§5: fixed rule order).
type ruleIndex struct {
	rules   []*Rule
	byEvent map[monitor.Event][]*Rule
}

// buildIndex constructs the immutable index for a rule slice. Quarantined
// rules stay in the rule list (visible to introspection and Reinstate) but
// are omitted from the per-event dispatch lists, so the hot path pays
// nothing for them.
func buildIndex(rules []*Rule) *ruleIndex {
	idx := &ruleIndex{rules: rules, byEvent: make(map[monitor.Event][]*Rule)}
	for _, r := range rules {
		if r.quarantined.Load() {
			continue
		}
		idx.byEvent[r.Event] = append(idx.byEvent[r.Event], r)
	}
	return idx
}

// Engine evaluates rules. Rules fire in registration order; within one
// event all applicable rules run before control returns to the engine
// (§5: fixed order, synchronous, no recursive triggering — events raised
// by actions are not dispatched re-entrantly).
//
// Rule lookup is lock-free: the hot path (Dispatch, HasRulesFor,
// HasAnyRules) reads an atomically published copy-on-write index, so
// firing a rule in the query thread never acquires a mutex and never
// contends with rule registration.
type Engine struct {
	env Env

	// writeMu serializes AddRule/RemoveRule/quarantine; its only protected
	// state is the COW index below, published by Store, so it guards no
	// plain fields.
	//sqlcm:lock rules.write
	//sqlcm:guards none
	writeMu sync.Mutex
	// idx is the published rule index: readers Load lock-free, writers
	// rebuild under writeMu and swap.
	//sqlcm:cow rules.write
	idx atomic.Pointer[ruleIndex]

	evaluations atomic.Int64
	fired       atomic.Int64
	actionErrs  atomic.Int64

	// observer, when installed, sees every rule evaluation in dispatch
	// order (the simulation harness compares this stream against its
	// sequential oracle). One atomic load on the hot path when unset.
	observer atomic.Pointer[func(rule string, fired bool)]

	// states recycles the per-event evaluation state (*evalState).
	states sync.Pool

	failsafeState
}

// SetEvalObserver installs (or with nil clears) a callback invoked after
// every rule evaluation with the rule name and whether its condition held.
// Invocations follow dispatch order; the callback runs synchronously on
// the dispatching goroutine, so it must be cheap and must not dispatch.
func (e *Engine) SetEvalObserver(fn func(rule string, fired bool)) {
	if fn == nil {
		e.observer.Store(nil)
		return
	}
	e.observer.Store(&fn)
}

// NewEngine creates a rule engine over env.
func NewEngine(env Env) *Engine {
	e := &Engine{env: env}
	e.states.New = func() any { return &evalState{eng: e} }
	e.idx.Store(buildIndex(nil))
	return e
}

// HasAnyRules reports whether any rule is registered at all; with no rules
// the monitoring glue skips even probe assembly and signature computation.
func (e *Engine) HasAnyRules() bool {
	return len(e.idx.Load().rules) > 0
}

// HasRulesFor reports whether any rule listens on ev. The monitoring glue
// uses it to skip object construction entirely when no rule needs the
// event — "no monitoring is performed unless it is required by a rule"
// (§2.1).
func (e *Engine) HasRulesFor(ev monitor.Event) bool {
	return len(e.idx.Load().byEvent[ev]) > 0
}

// Stats reports rule-engine counters.
type Stats struct {
	Evaluations int64 // condition evaluations (one per object combination)
	Fired       int64 // rule firings (condition true)
	ActionErrs  int64
	Panics      int64 // recovered panics in conditions or actions
	Quarantines int64 // rules removed from dispatch after repeated panics
	Rules       int
}

// Stats returns a snapshot of counters.
func (e *Engine) Stats() Stats {
	n := len(e.idx.Load().rules)
	return Stats{
		Evaluations: e.evaluations.Load(),
		Fired:       e.fired.Load(),
		ActionErrs:  e.actionErrs.Load(),
		Panics:      e.panics.Load(),
		Quarantines: e.quarantines.Load(),
		Rules:       n,
	}
}

// AddRule registers a rule (enabled). Rules added later evaluate later.
func (e *Engine) AddRule(r *Rule) error {
	if r.Name == "" {
		return fmt.Errorf("rules: rule needs a name")
	}
	if r.Event.Class == "" {
		return fmt.Errorf("rules: rule %q needs an event", r.Name)
	}
	if err := r.analyze(); err != nil {
		return err
	}
	r.enabled.Store(true)
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	cur := e.idx.Load()
	for _, existing := range cur.rules {
		if existing.Name == r.Name {
			return fmt.Errorf("rules: duplicate rule %q", r.Name)
		}
	}
	next := make([]*Rule, 0, len(cur.rules)+1)
	next = append(next, cur.rules...)
	next = append(next, r)
	e.idx.Store(buildIndex(next))
	return nil
}

// RemoveRule unregisters a rule by name.
func (e *Engine) RemoveRule(name string) bool {
	e.writeMu.Lock()
	defer e.writeMu.Unlock()
	cur := e.idx.Load()
	for i, r := range cur.rules {
		if r.Name == name {
			next := make([]*Rule, 0, len(cur.rules)-1)
			next = append(next, cur.rules[:i]...)
			next = append(next, cur.rules[i+1:]...)
			e.idx.Store(buildIndex(next))
			return true
		}
	}
	return false
}

// Rule returns a registered rule by name.
func (e *Engine) Rule(name string) (*Rule, bool) {
	for _, r := range e.idx.Load().rules {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Snapshot returns the registered rules in evaluation order. The slice
// belongs to the published index: callers must not modify it.
func (e *Engine) Snapshot() []*Rule { return e.idx.Load().rules }

// Rules returns the registered rule names in evaluation order.
func (e *Engine) Rules() []string {
	rules := e.idx.Load().rules
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = r.Name
	}
	return out
}

// analyze compiles the condition and extracts its free classes.
func (r *Rule) analyze() error {
	classes := map[string]bool{}
	sqlparser.WalkExpr(r.Condition, func(x sqlparser.Expr) {
		if c, ok := x.(*sqlparser.ColumnRef); ok {
			if _, isClass := monitor.ClassID(c.Table); isClass {
				classes[c.Table] = true
			}
		}
	})
	r.freeClasses = r.freeClasses[:0]
	for cl := range classes {
		if cl != r.Event.Class {
			r.freeClasses = append(r.freeClasses, cl)
		}
	}
	var err error
	r.cond, err = compileCond(r.Condition)
	return err
}

// Dispatch delivers one event with its bound objects to every matching
// rule, synchronously in the caller's thread and in registration order
// (§5: fixed rule order; all applicable rules run before the engine
// resumes). objs is only read during the call.
//
//sqlcm:hotpath
func (e *Engine) Dispatch(ev monitor.Event, objs map[string]monitor.Object) {
	// Lock-free: one atomic load of the copy-on-write index, then only the
	// rules listening on this event are visited.
	matching := e.idx.Load().byEvent[ev]
	if len(matching) == 0 {
		return
	}

	// One evaluation state for the whole event.
	st := e.states.Get().(*evalState)
	st.base.Objects, st.base.Primary = objs, objs[ev.Class]
	if st.base.Primary == nil {
		// Events like Timer.Alarm bind the timer object as primary.
		for _, o := range objs {
			st.base.Primary = o
			break
		}
	}
	st.bind(&st.base)
	for _, r := range matching {
		if !r.Enabled() {
			continue
		}
		if len(r.freeClasses) == 0 {
			e.safeEvalRule(r, st)
			continue
		}
		for _, ctx := range e.expand(r, &st.base) {
			st.bind(ctx)
			e.safeEvalRule(r, st)
		}
		st.bind(&st.base)
	}
	st.reset()
	e.states.Put(st)
}

// evalRule evaluates one rule against the context bound in st. It runs
// user rule code (condition and actions), so it must only be reached
// through the recover-protected safeEvalRule (the failsafe tests and the
// chaos tier's panicking rules fail the moment it is not).
//
//sqlcm:hotpath
func (e *Engine) evalRule(r *Rule, st *evalState) {
	e.evaluations.Add(1)
	if r.cond != nil {
		ok, err := st.holds(r.cond)
		if err != nil {
			e.actionErrs.Add(1)
			e.observe(r.Name, false)
			return
		}
		if !ok {
			e.observe(r.Name, false)
			return
		}
	}
	e.fired.Add(1)
	e.observe(r.Name, true)
	for _, a := range r.Actions {
		if err := a.Run(e.env, st.ctx); err != nil {
			e.actionErrs.Add(1)
		}
	}
}

// observe forwards one evaluation to the installed observer, if any.
//
//sqlcm:hotpath
func (e *Engine) observe(rule string, fired bool) {
	if fn := e.observer.Load(); fn != nil {
		(*fn)(rule, fired)
	}
}

// expand produces the object combinations a rule evaluates over: the bound
// event objects crossed with all live objects of every free class (§5.2).
func (e *Engine) expand(r *Rule, base *Ctx) []*Ctx {
	out := []*Ctx{base}
	for _, class := range r.freeClasses {
		if _, bound := base.Objects[class]; bound {
			continue
		}
		var candidates []monitor.Object
		switch class {
		case monitor.ClassQuery:
			candidates = e.env.ActiveQueryObjects()
		case monitor.ClassBlocker, monitor.ClassBlocked:
			// Blocker/Blocked come in pairs from the lock graph; bind both.
			pairs := e.env.BlockPairObjects()
			var next []*Ctx
			for _, ctx := range out {
				for _, p := range pairs {
					objs2 := cloneObjs(ctx.Objects)
					objs2[monitor.ClassBlocker] = p[0]
					objs2[monitor.ClassBlocked] = p[1]
					next = append(next, &Ctx{Objects: objs2, Primary: ctx.Primary})
				}
			}
			out = next
			continue
		default:
			// No live-object enumeration for this class: the reference
			// cannot bind, so the rule evaluates over no combinations.
			return nil
		}
		var next []*Ctx
		for _, ctx := range out {
			for _, cand := range candidates {
				objs2 := cloneObjs(ctx.Objects)
				objs2[class] = cand
				next = append(next, &Ctx{Objects: objs2, Primary: ctx.Primary})
			}
		}
		out = next
	}
	return out
}

func cloneObjs(in map[string]monitor.Object) map[string]monitor.Object {
	out := make(map[string]monitor.Object, len(in)+1)
	for k, v := range in {
		out[k] = v
	}
	return out
}

// ---------------------------------------------------------------------------
// Conditions
// ---------------------------------------------------------------------------

// ParseCondition parses a condition string (reusing the SQL expression
// grammar: Class.Attr and LAT.Column references, arithmetic, comparisons,
// AND/OR/NOT, brackets — exactly the operators of §5.2). Parse failures
// carry the byte offset and the offending token (as a wrapped
// *sqlparser.ParseError), so rulecheck diagnostics can point at the exact
// position in the condition source.
func ParseCondition(src string) (sqlparser.Expr, error) {
	if strings.TrimSpace(src) == "" {
		return nil, nil
	}
	e, err := sqlparser.ParseExpr(src)
	if err != nil {
		var pe *sqlparser.ParseError
		if errors.As(err, &pe) {
			tok := pe.Token
			if tok == "" {
				tok = "end of input"
			} else {
				tok = fmt.Sprintf("%q", tok)
			}
			return nil, fmt.Errorf("rules: condition syntax error at offset %d (token %s): %s: %w",
				pe.Offset, tok, pe.Msg, pe)
		}
		return nil, fmt.Errorf("rules: bad condition: %w", err)
	}
	return e, nil
}

// String renders the rule in the paper's Event/Condition/Action form.
func (r *Rule) String() string {
	cond := "TRUE"
	if r.Condition != nil {
		cond = r.Condition.String()
	}
	return fmt.Sprintf("%s: Event: %s Condition: %s Action: %s",
		r.Name, r.Event, cond, describeActions(r.Actions))
}
