package rulecheck

import (
	"fmt"
	"strings"

	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
)

// Action validation: LAT references (Insert/Reset/Persist) against the
// declared LAT schemas, attribute resolution for Insert sources and
// Persist columns (including the sanitized-column collision rule),
// Cancel applicability, timer parameters, and {ref} substitution
// placeholders in notification text.

// checkActions validates one rule's action list.
func (c *checker) checkActions(r *rules.Rule) {
	if len(r.Actions) == 0 {
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Warning, Pos: -1,
			Message: "rule has no actions"})
		return
	}
	resolvable := c.resolvableClasses(r)
	for _, a := range r.Actions {
		switch x := a.(type) {
		case *rules.InsertAction:
			c.checkInsert(r, resolvable, x)
		case *rules.ResetAction:
			c.checkLATExists(r, "Reset", x.LAT)
		case *rules.PersistAction:
			c.checkPersist(r, resolvable, x)
		case *rules.SendMailAction:
			c.checkPlaceholders(r, resolvable, "SendMail", x.Text)
		case *rules.RunExternalAction:
			c.checkPlaceholders(r, resolvable, "RunExternal", x.Command)
		case *rules.CancelAction:
			c.checkCancel(r, resolvable, x)
		case *rules.SetTimerAction:
			c.checkSetTimer(r, x)
		case *rules.FuncAction:
			if x.Fn == nil {
				c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
					Message: fmt.Sprintf("Func action %q has a nil function", x.Name)})
			}
		}
	}
}

// checkLATExists validates that a LAT named by an action is declared.
// Outside a closed set an engine can define the LAT after the rule, so
// the finding is only a warning there.
func (c *checker) checkLATExists(r *rules.Rule, action, name string) bool {
	if name == "" {
		c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: Error, Pos: -1,
			Message: action + " action names no LAT"})
		return false
	}
	if _, ok := c.lats[name]; ok {
		return true
	}
	sev := Warning
	msg := fmt.Sprintf("%s references LAT %q, which is not declared (it may be defined later)", action, name)
	if c.set.Closed {
		sev = Error
		msg = fmt.Sprintf("%s references LAT %q, which is not declared in this set", action, name)
	}
	c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: sev, Pos: -1, Message: msg})
	return false
}

// checkInsert validates that every source attribute of the target LAT —
// grouping attributes and aggregation inputs — resolves in the rule's
// event context, mirroring the runtime failure lat.Table.Insert raises.
func (c *checker) checkInsert(r *rules.Rule, resolvable map[string]bool, a *rules.InsertAction) {
	if !c.checkLATExists(r, "Insert", a.LAT) {
		return
	}
	spec := c.lats[a.LAT]
	for _, g := range spec.GroupBy {
		c.checkAttrRef(r, resolvable, fmt.Sprintf("Insert(%s) grouping attribute", a.LAT), g)
	}
	for _, agg := range spec.Aggs {
		if agg.Attr == "" { // COUNT(*)
			continue
		}
		c.checkAttrRef(r, resolvable, fmt.Sprintf("Insert(%s) aggregation input", a.LAT), agg.Attr)
	}
}

// checkPersist validates a Persist action: LAT existence for LAT
// persists, and per-attribute resolution plus the sanitized-column
// collision rule for object persists.
func (c *checker) checkPersist(r *rules.Rule, resolvable map[string]bool, a *rules.PersistAction) {
	if a.Table == "" {
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
			Message: "Persist action names no target table"})
	}
	if a.FromLAT != "" {
		c.checkLATExists(r, "Persist", a.FromLAT)
		return
	}
	if len(a.Attrs) == 0 {
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
			Message: "Persist action lists no attributes (and no source LAT)"})
		return
	}
	seen := make(map[string]string, len(a.Attrs))
	for _, ref := range a.Attrs {
		col := sanitized(ref)
		if prev, dup := seen[col]; dup {
			c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("Persist attributes %q and %q both map to column %q: one would silently overwrite the other", prev, ref, col)})
		}
		seen[col] = ref
		c.checkAttrRef(r, resolvable, "Persist attribute", ref)
	}
}

// checkAttrRef validates one attribute reference ("Attr" or
// "Class.Attr") against the objects the rule's event binds. References
// to declared LATs are accepted (the runtime reads the matching row).
func (c *checker) checkAttrRef(r *rules.Rule, resolvable map[string]bool, what, ref string) {
	qual, attr, qualified := cutDot(ref)
	if !qualified {
		class := r.Event.Class
		if class == monitor.ClassLATRow {
			return // dynamic row columns resolve at runtime
		}
		if _, ok := monitor.AttrKind(class, ref); !ok {
			c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("%s %q: %s has no probe attribute %q (event %s)", what, ref, class, ref, r.Event)})
		}
		return
	}
	if _, isClass := monitor.ClassAttributes(qual); isClass {
		if !resolvable[qual] {
			c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("%s %q: event %s does not bind a %s object", what, ref, r.Event, qual)})
			return
		}
		if qual == monitor.ClassLATRow {
			return
		}
		if _, ok := monitor.AttrKind(qual, attr); !ok {
			c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("%s %q: %s has no probe attribute %q", what, ref, qual, attr)})
		}
		return
	}
	if spec, ok := c.lats[qual]; ok {
		if _, colOK := latColumnKind(spec, attr); !colOK {
			c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: Error, Pos: -1,
				Message: fmt.Sprintf("%s %q: LAT %s has no column %q (columns: %s)", what, ref, qual, attr, columnsOf(spec))})
		}
		return
	}
	sev := Warning
	msg := fmt.Sprintf("%s %q: %s names neither a monitored class nor a declared LAT", what, ref, qual)
	if c.set.Closed {
		sev = Error
	}
	c.report(Diagnostic{Rule: r.Name, Analysis: "latref", Severity: sev, Pos: -1, Message: msg})
}

// checkPlaceholders validates the {ref} substitutions in notification
// text. Unresolvable placeholders are not runtime errors — Substitute
// leaves them literal — so findings are warnings.
func (c *checker) checkPlaceholders(r *rules.Rule, resolvable map[string]bool, action, text string) {
	for _, ref := range placeholders(text) {
		qual, attr, qualified := cutDot(ref)
		if !qualified {
			class := r.Event.Class
			if class == monitor.ClassLATRow {
				continue
			}
			if _, ok := monitor.AttrKind(class, ref); !ok {
				c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Warning, Pos: -1,
					Message: fmt.Sprintf("%s placeholder {%s}: %s has no probe attribute %q; the placeholder will appear literally", action, ref, class, ref)})
			}
			continue
		}
		if _, isClass := monitor.ClassAttributes(qual); isClass {
			if !resolvable[qual] {
				c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Warning, Pos: -1,
					Message: fmt.Sprintf("%s placeholder {%s}: event %s does not bind a %s object", action, ref, r.Event, qual)})
				continue
			}
			if qual == monitor.ClassLATRow {
				continue
			}
			if _, ok := monitor.AttrKind(qual, attr); !ok {
				c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Warning, Pos: -1,
					Message: fmt.Sprintf("%s placeholder {%s}: %s has no probe attribute %q", action, ref, qual, attr)})
			}
			continue
		}
		if spec, ok := c.lats[qual]; ok {
			if _, colOK := latColumnKind(spec, attr); !colOK {
				c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Warning, Pos: -1,
					Message: fmt.Sprintf("%s placeholder {%s}: LAT %s has no column %q", action, ref, qual, attr)})
			}
			continue
		}
		if c.set.Closed {
			c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Warning, Pos: -1,
				Message: fmt.Sprintf("%s placeholder {%s}: %s names neither a monitored class nor a declared LAT", action, ref, qual)})
		}
	}
}

// placeholders extracts {ref} substitution references from text,
// mirroring rules.Substitute's scan.
func placeholders(text string) []string {
	var out []string
	for {
		i := strings.IndexByte(text, '{')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(text[i:], '}')
		if j < 0 {
			return out
		}
		out = append(out, text[i+1:i+j])
		text = text[i+j+1:]
	}
}

// checkCancel validates a Cancel action: the targeted object must be a
// cancellable class bound by the event.
func (c *checker) checkCancel(r *rules.Rule, resolvable map[string]bool, a *rules.CancelAction) {
	class := a.Class
	if class == "" {
		class = r.Event.Class
	}
	switch class {
	case monitor.ClassQuery, monitor.ClassBlocker, monitor.ClassBlocked:
	default:
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
			Message: fmt.Sprintf("Cancel applies to Query, Blocker or Blocked objects, not %s", class)})
		return
	}
	if a.Class != "" && !resolvable[a.Class] {
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
			Message: fmt.Sprintf("Cancel(%s): event %s does not bind a %s object", a.Class, r.Event, a.Class)})
	}
}

// checkSetTimer validates timer parameters against TimerManager.Set's
// runtime rejection rules.
func (c *checker) checkSetTimer(r *rules.Rule, a *rules.SetTimerAction) {
	if a.Timer == "" {
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
			Message: "Set timer action names no timer"})
	}
	if a.Count != 0 && a.Period <= 0 {
		c.report(Diagnostic{Rule: r.Name, Analysis: "action", Severity: Error, Pos: -1,
			Message: fmt.Sprintf("timer %q needs a positive period (got %s)", a.Timer, a.Period)})
	}
}
