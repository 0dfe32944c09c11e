package rules

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sqlcm/internal/monitor"
	"sqlcm/internal/sqltypes"
)

// ---------------------------------------------------------------------------
// Insert(LATName) — fold the in-context object into a LAT (§5.3).
// ---------------------------------------------------------------------------

// InsertAction inserts the in-context object into a LAT. The LAT's
// attribute names resolve against the rule context: "Class.Attr" reads the
// named object, a bare name reads the primary object.
type InsertAction struct {
	LAT string
	// bound is the table last resolved, its attributes bound as probes.
	bound atomic.Pointer[latBinding]
}

// Run implements Action.
func (a *InsertAction) Run(env Env, ctx *Ctx) error {
	old := a.bound.Load()
	b, ok := resolveLAT(env, a.LAT, old)
	if !ok {
		return fmt.Errorf("rules: Insert: unknown LAT %q", a.LAT)
	}
	if b != old {
		a.bound.Store(b)
	}
	return ctx.state().insert(b)
}

// Describe implements Action.
func (a *InsertAction) Describe() string { return "Insert(" + a.LAT + ")" }

// ---------------------------------------------------------------------------
// Reset(LATName)
// ---------------------------------------------------------------------------

// ResetAction clears a LAT.
type ResetAction struct {
	LAT string
}

// Run implements Action.
func (a *ResetAction) Run(env Env, ctx *Ctx) error {
	table, ok := env.LAT(a.LAT)
	if !ok {
		return fmt.Errorf("rules: Reset: unknown LAT %q", a.LAT)
	}
	table.Reset()
	return nil
}

// Describe implements Action.
func (a *ResetAction) Describe() string { return "Reset(" + a.LAT + ")" }

// ---------------------------------------------------------------------------
// Persist(Table, …) — write object attributes or a whole LAT to a table.
// ---------------------------------------------------------------------------

// PersistAction writes monitoring data to an engine table (§5.3).
// With FromLAT set it persists every row of that LAT; otherwise it persists
// the listed attributes of the in-context object. The engine appends a
// timestamp column, per §4.3.
type PersistAction struct {
	Table   string
	FromLAT string
	// Attrs are attribute references for object persists; references may be
	// qualified ("Blocker.Query_Text").
	Attrs []string
}

// Run implements Action.
func (a *PersistAction) Run(env Env, ctx *Ctx) error {
	if a.FromLAT != "" {
		table, ok := env.LAT(a.FromLAT)
		if !ok {
			return fmt.Errorf("rules: Persist: unknown LAT %q", a.FromLAT)
		}
		cols := table.Spec().Columns()
		rows := table.Rows()
		for _, row := range rows {
			kinds := kindsOf(row)
			if err := env.Persist(a.Table, cols, kinds, row); err != nil {
				return err
			}
		}
		return nil
	}
	if len(a.Attrs) == 0 {
		return fmt.Errorf("rules: Persist: no attributes listed")
	}
	cols := make([]string, len(a.Attrs))
	row := make([]sqltypes.Value, len(a.Attrs))
	seen := make(map[string]string, len(a.Attrs))
	for i, ref := range a.Attrs {
		cols[i] = sanitizeColumn(ref)
		// Sanitizing maps '.' to '_', so distinct references can collide
		// ("Blocker.Duration" vs a literal "Blocker_Duration"); persisting
		// both under one column would silently drop data, so reject.
		if prev, dup := seen[cols[i]]; dup {
			return fmt.Errorf("rules: Persist: attributes %q and %q both map to column %q", prev, ref, cols[i])
		}
		seen[cols[i]] = ref
		v, ok := ctx.Attr(ref)
		if !ok {
			return fmt.Errorf("rules: Persist: unresolved attribute %q", ref)
		}
		row[i] = v
	}
	return env.Persist(a.Table, cols, kindsOf(row), row)
}

// Describe implements Action.
func (a *PersistAction) Describe() string {
	if a.FromLAT != "" {
		return fmt.Sprintf("Persist(%s ← LAT %s)", a.Table, a.FromLAT)
	}
	return fmt.Sprintf("Persist(%s, %s)", a.Table, strings.Join(a.Attrs, ", "))
}

func kindsOf(row []sqltypes.Value) []sqltypes.Kind {
	out := make([]sqltypes.Kind, len(row))
	for i, v := range row {
		out[i] = v.Kind()
	}
	return out
}

func sanitizeColumn(ref string) string {
	return strings.ReplaceAll(ref, ".", "_")
}

// ---------------------------------------------------------------------------
// SendMail(Text, Address)
// ---------------------------------------------------------------------------

// SendMailAction sends a notification with attribute values substituted
// into the text: occurrences of {Class.Attr}, {LAT.Column} or {Attr} are
// replaced (§5.3).
type SendMailAction struct {
	Address string
	Text    string
}

// Run implements Action.
func (a *SendMailAction) Run(env Env, ctx *Ctx) error {
	return env.SendMail(a.Address, Substitute(env, a.Text, ctx))
}

// Describe implements Action.
func (a *SendMailAction) Describe() string { return "SendMail(" + a.Address + ")" }

// ---------------------------------------------------------------------------
// RunExternal(Command)
// ---------------------------------------------------------------------------

// RunExternalAction launches an external program with substitution, e.g. a
// post-processing job over a persisted LAT (§5.3).
type RunExternalAction struct {
	Command string
}

// Run implements Action.
func (a *RunExternalAction) Run(env Env, ctx *Ctx) error {
	return env.RunExternal(Substitute(env, a.Command, ctx))
}

// Describe implements Action.
func (a *RunExternalAction) Describe() string { return "RunExternal(" + a.Command + ")" }

// Substitute replaces {ref} placeholders with attribute or LAT values.
func Substitute(env Env, text string, ctx *Ctx) string {
	var b strings.Builder
	for {
		i := strings.IndexByte(text, '{')
		if i < 0 {
			b.WriteString(text)
			return b.String()
		}
		j := strings.IndexByte(text[i:], '}')
		if j < 0 {
			b.WriteString(text)
			return b.String()
		}
		b.WriteString(text[:i])
		ref := text[i+1 : i+j]
		if v, ok := lookupRef(env, ref, ctx); ok {
			b.WriteString(v.String())
		} else {
			b.WriteString("{" + ref + "}")
		}
		text = text[i+j+1:]
	}
}

// lookupRef resolves a substitution reference: object attribute first, then
// LAT column (matched on the in-context object).
func lookupRef(env Env, ref string, ctx *Ctx) (sqltypes.Value, bool) {
	if v, ok := ctx.Attr(ref); ok {
		return v, true
	}
	if latName, col, ok := strings.Cut(ref, "."); ok {
		if table, found := env.LAT(latName); found {
			row, matched := table.LookupByGetter(ctx.Attr)
			if !matched {
				return sqltypes.Null, false
			}
			idx := table.ColumnIndex(col)
			if idx < 0 {
				return sqltypes.Null, false
			}
			return row[idx], true
		}
	}
	return sqltypes.Null, false
}

// ---------------------------------------------------------------------------
// Cancel()
// ---------------------------------------------------------------------------

// CancelAction cancels the in-context query (Query, Blocker or Blocked
// object, §5.3). Per the paper, the action only signals the executing
// threads; remaining rules for the event still run.
type CancelAction struct {
	// Class selects which object to cancel; empty means the primary.
	Class string
}

// Run implements Action.
func (a *CancelAction) Run(env Env, ctx *Ctx) error {
	obj := ctx.Primary
	if a.Class != "" {
		o, ok := ctx.Objects[a.Class]
		if !ok {
			return fmt.Errorf("rules: Cancel: no %s object in context", a.Class)
		}
		obj = o
	}
	if obj == nil {
		return fmt.Errorf("rules: Cancel: no object in context")
	}
	switch obj.Class() {
	case monitor.ClassQuery, monitor.ClassBlocker, monitor.ClassBlocked:
	default:
		return fmt.Errorf("rules: Cancel applies to Query, Blocker or Blocked, not %s", obj.Class())
	}
	idVal, ok := obj.Get("ID")
	if !ok {
		return fmt.Errorf("rules: Cancel: object has no ID")
	}
	env.CancelQuery(idVal.Int())
	return nil
}

// Describe implements Action.
func (a *CancelAction) Describe() string {
	if a.Class != "" {
		return "Cancel(" + a.Class + ")"
	}
	return "Cancel()"
}

// ---------------------------------------------------------------------------
// Set(Time, number_alarms) — timers
// ---------------------------------------------------------------------------

// SetTimerAction arms a timer (§5.3): period between alarms and the number
// of alarms (0 disables, negative repeats forever).
type SetTimerAction struct {
	Timer  string
	Period time.Duration
	Count  int
}

// Run implements Action.
func (a *SetTimerAction) Run(env Env, ctx *Ctx) error {
	return env.SetTimer(a.Timer, a.Period, a.Count)
}

// Describe implements Action.
func (a *SetTimerAction) Describe() string {
	return fmt.Sprintf("Set(%s, %s, %d)", a.Timer, a.Period, a.Count)
}

// ---------------------------------------------------------------------------
// FuncAction — programmatic hook (closures as actions), useful for tests
// and for embedding applications that want Go callbacks.
// ---------------------------------------------------------------------------

// FuncAction wraps a Go function as a rule action.
type FuncAction struct {
	Name string
	Fn   func(env Env, ctx *Ctx) error
}

// Run implements Action.
func (a *FuncAction) Run(env Env, ctx *Ctx) error { return a.Fn(env, ctx) }

// Describe implements Action.
func (a *FuncAction) Describe() string { return "Func(" + a.Name + ")" }
