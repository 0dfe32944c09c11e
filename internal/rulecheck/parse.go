package rulecheck

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/rules"
	"sqlcm/internal/sqlparser"
)

// The .rules declarative format: whole rule sets — LAT declarations plus
// ECA rules — in one file, the unit sqlcm-vet analyses and
// DB.LoadRuleSet installs. Line-oriented; '#' starts a comment.
//
//	set max_trigger_depth 8            # optional, set-level
//
//	lat Duration_LAT {
//	    group_by Logical_Signature     # comma-separated attribute refs
//	    agg avg Duration as Avg_Duration aging
//	    agg count as N                 # count takes no attribute
//	    order_by N desc                # also the eviction priority
//	    max_rows 100
//	    max_bytes 1048576
//	    aging_window 1m
//	    aging_block 5s
//	}
//
//	rule outlier on Query.Commit {
//	    when Duration > 5 * Duration_LAT.Avg_Duration
//	    persist outliers attrs ID, Query_Text, Duration
//	    persist report from Duration_LAT
//	    insert Duration_LAT
//	    reset Duration_LAT
//	    sendmail "dba@example.com" "outlier {ID}: {Duration}s"
//	    runexternal "notify.sh {User}"
//	    cancel                         # or: cancel Blocker
//	    timer flush period 5s count -1 # or: timer flush off
//	}
//
// ParseSet reports structural problems (unknown directives, malformed
// blocks) as an error; condition parse failures become "syntax"
// diagnostics so a batch run surfaces every broken rule instead of
// stopping at the first.

// ParseSet parses a .rules file into a Set (Closed=true: the file is a
// complete universe) plus syntax diagnostics for unparsable conditions.
func ParseSet(src string) (*Set, []Diagnostic, error) {
	p := &setParser{lines: strings.Split(src, "\n")}
	set := &Set{Closed: true}
	for p.next() {
		line := p.line
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "set "):
			if err := p.parseSetDirective(set, line); err != nil {
				return nil, nil, err
			}
		case strings.HasPrefix(line, "lat "):
			spec, err := p.parseLAT(line)
			if err != nil {
				return nil, nil, err
			}
			set.LATs = append(set.LATs, *spec)
		case strings.HasPrefix(line, "rule "):
			rd, diags, err := p.parseRule(line)
			if err != nil {
				return nil, nil, err
			}
			p.diags = append(p.diags, diags...)
			set.Rules = append(set.Rules, rd)
		default:
			return nil, nil, p.errf("expected 'set', 'lat' or 'rule', got %q", firstField(line))
		}
	}
	return set, p.diags, nil
}

type setParser struct {
	lines []string
	n     int    // 1-based number of the current line
	line  string // current line, comment-stripped and trimmed
	diags []Diagnostic
}

// next advances to the following line; false at end of input.
func (p *setParser) next() bool {
	if p.n >= len(p.lines) {
		return false
	}
	raw := p.lines[p.n]
	p.n++
	if i := strings.IndexByte(raw, '#'); i >= 0 && !insideQuotes(raw, i) {
		raw = raw[:i]
	}
	p.line = strings.TrimSpace(raw)
	return true
}

// insideQuotes reports whether byte i of s falls inside a double-quoted
// string (so '#' in notification text is not a comment).
func insideQuotes(s string, i int) bool {
	in := false
	for j := 0; j < i; j++ {
		if s[j] == '"' {
			in = !in
		}
	}
	return in
}

func (p *setParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("rules file line %d: %s", p.n, fmt.Sprintf(format, args...))
}

func firstField(s string) string {
	f := strings.Fields(s)
	if len(f) == 0 {
		return ""
	}
	return f[0]
}

// parseSetDirective handles set-level options.
func (p *setParser) parseSetDirective(set *Set, line string) error {
	f := strings.Fields(line)
	if len(f) != 3 {
		return p.errf("set directive wants 'set <option> <value>'")
	}
	switch f[1] {
	case "max_trigger_depth":
		n, err := strconv.Atoi(f[2])
		if err != nil || n <= 0 {
			return p.errf("max_trigger_depth wants a positive integer, got %q", f[2])
		}
		set.MaxTriggerDepth = n
		return nil
	default:
		return p.errf("unknown set option %q", f[1])
	}
}

// parseLAT parses one `lat Name { … }` block.
func (p *setParser) parseLAT(header string) (*lat.Spec, error) {
	f := strings.Fields(strings.TrimSuffix(header, "{"))
	if len(f) != 2 || !strings.HasSuffix(header, "{") {
		return nil, p.errf("lat header wants 'lat <name> {'")
	}
	name := f[1]
	spec := &lat.Spec{Name: name}
	for p.next() {
		line := p.line
		switch {
		case line == "":
			continue
		case line == "}":
			return spec, nil
		case strings.HasPrefix(line, "group_by "):
			for _, c := range splitCommaList(strings.TrimPrefix(line, "group_by ")) {
				spec.GroupBy = append(spec.GroupBy, c)
			}
		case strings.HasPrefix(line, "agg "):
			col, err := p.parseAgg(strings.TrimPrefix(line, "agg "))
			if err != nil {
				return nil, err
			}
			spec.Aggs = append(spec.Aggs, *col)
		case strings.HasPrefix(line, "order_by "):
			for _, c := range splitCommaList(strings.TrimPrefix(line, "order_by ")) {
				key := lat.OrderKey{Col: c}
				if strings.HasSuffix(c, " desc") {
					key = lat.OrderKey{Col: strings.TrimSpace(strings.TrimSuffix(c, " desc")), Desc: true}
				} else if strings.HasSuffix(c, " asc") {
					key = lat.OrderKey{Col: strings.TrimSpace(strings.TrimSuffix(c, " asc"))}
				}
				spec.OrderBy = append(spec.OrderBy, key)
			}
		case strings.HasPrefix(line, "max_rows "):
			n, err := strconv.Atoi(strings.TrimSpace(strings.TrimPrefix(line, "max_rows ")))
			if err != nil || n < 0 {
				return nil, p.errf("max_rows wants a non-negative integer")
			}
			spec.MaxRows = n
		case strings.HasPrefix(line, "max_bytes "):
			n, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, "max_bytes ")), 10, 64)
			if err != nil || n < 0 {
				return nil, p.errf("max_bytes wants a non-negative integer")
			}
			spec.MaxBytes = n
		case strings.HasPrefix(line, "aging_window "):
			d, err := time.ParseDuration(strings.TrimSpace(strings.TrimPrefix(line, "aging_window ")))
			if err != nil {
				return nil, p.errf("aging_window: %v", err)
			}
			spec.AgingWindow = d
		case strings.HasPrefix(line, "aging_block "):
			d, err := time.ParseDuration(strings.TrimSpace(strings.TrimPrefix(line, "aging_block ")))
			if err != nil {
				return nil, p.errf("aging_block: %v", err)
			}
			spec.AgingBlock = d
		default:
			return nil, p.errf("unknown lat directive %q", firstField(line))
		}
	}
	return nil, p.errf("lat %s: missing closing '}'", name)
}

// parseAgg parses `<func> [<attr>] as <name> [aging]`.
func (p *setParser) parseAgg(rest string) (*lat.AggCol, error) {
	f := strings.Fields(rest)
	if len(f) < 3 {
		return nil, p.errf("agg wants '<func> [<attr>] as <name> [aging]'")
	}
	fn, err := lat.AggFuncFromName(f[0])
	if err != nil {
		return nil, p.errf("%v", err)
	}
	col := &lat.AggCol{Func: fn}
	i := 1
	if f[i] != "as" {
		col.Attr = f[i]
		i++
	}
	if i >= len(f) || f[i] != "as" || i+1 >= len(f) {
		return nil, p.errf("agg wants '<func> [<attr>] as <name> [aging]'")
	}
	col.Name = f[i+1]
	i += 2
	if i < len(f) {
		if f[i] != "aging" || i+1 < len(f) {
			return nil, p.errf("unexpected %q after agg column name", f[i])
		}
		col.Aging = true
	}
	return col, nil
}

// parseRule parses one `rule Name on Class.Event { … }` block.
func (p *setParser) parseRule(header string) (*rules.Rule, []Diagnostic, error) {
	f := strings.Fields(strings.TrimSuffix(header, "{"))
	if len(f) != 4 || f[2] != "on" {
		return nil, nil, p.errf("rule header wants 'rule <name> on <Class.Event> {'")
	}
	if !strings.HasSuffix(header, "{") {
		return nil, nil, p.errf("rule header must end with '{'")
	}
	rd := &rules.Rule{Name: f[1]}
	var diags []Diagnostic
	ev, err := monitor.ParseEvent(f[3])
	if err != nil {
		// Recorded as a diagnostic (Check also flags unknown events), but
		// keep parsing the block so later rules are still analysed.
		diags = append(diags, Diagnostic{Rule: rd.Name, Analysis: "syntax", Severity: Error, Pos: -1,
			Message: fmt.Sprintf("line %d: unknown event %q", p.n, f[3])})
	}
	rd.Event = ev
	for p.next() {
		line := p.line
		switch {
		case line == "":
			continue
		case line == "}":
			return rd, diags, nil
		case strings.HasPrefix(line, "when "):
			src := strings.TrimSpace(strings.TrimPrefix(line, "when "))
			rd.Source = src
			cond, err := rules.ParseCondition(src)
			if err != nil {
				pos := -1
				var pe *sqlparser.ParseError
				if errors.As(err, &pe) {
					pos = pe.Offset
				}
				diags = append(diags, Diagnostic{Rule: rd.Name, Analysis: "syntax", Severity: Error,
					Pos: pos, Message: fmt.Sprintf("line %d: %v", p.n, err)})
				continue
			}
			rd.Condition = cond
		default:
			a, err := p.parseAction(line)
			if err != nil {
				return nil, nil, err
			}
			rd.Actions = append(rd.Actions, a)
		}
	}
	return nil, nil, p.errf("rule %s: missing closing '}'", rd.Name)
}

// parseAction parses one action line inside a rule block.
func (p *setParser) parseAction(line string) (rules.Action, error) {
	verb := firstField(line)
	rest := strings.TrimSpace(strings.TrimPrefix(line, verb))
	switch verb {
	case "insert":
		if rest == "" || len(strings.Fields(rest)) != 1 {
			return nil, p.errf("insert wants 'insert <LAT>'")
		}
		return &rules.InsertAction{LAT: rest}, nil
	case "reset":
		if rest == "" || len(strings.Fields(rest)) != 1 {
			return nil, p.errf("reset wants 'reset <LAT>'")
		}
		return &rules.ResetAction{LAT: rest}, nil
	case "persist":
		return p.parsePersist(rest)
	case "sendmail":
		parts, err := quotedStrings(rest)
		if err != nil || len(parts) != 2 {
			return nil, p.errf(`sendmail wants 'sendmail "<address>" "<text>"'`)
		}
		return &rules.SendMailAction{Address: parts[0], Text: parts[1]}, nil
	case "runexternal":
		parts, err := quotedStrings(rest)
		if err != nil || len(parts) != 1 {
			return nil, p.errf(`runexternal wants 'runexternal "<command>"'`)
		}
		return &rules.RunExternalAction{Command: parts[0]}, nil
	case "cancel":
		if rest != "" && len(strings.Fields(rest)) != 1 {
			return nil, p.errf("cancel wants 'cancel [<Class>]'")
		}
		return &rules.CancelAction{Class: rest}, nil
	case "timer":
		return p.parseTimer(rest)
	default:
		return nil, p.errf("unknown action %q", verb)
	}
}

// parsePersist parses `<table> attrs a, b, …` or `<table> from <LAT>`.
func (p *setParser) parsePersist(rest string) (rules.Action, error) {
	f := strings.Fields(rest)
	if len(f) >= 3 && f[1] == "from" {
		if len(f) != 3 {
			return nil, p.errf("persist wants 'persist <table> from <LAT>'")
		}
		return &rules.PersistAction{Table: f[0], FromLAT: f[2]}, nil
	}
	if len(f) >= 3 && f[1] == "attrs" {
		attrs := splitCommaList(strings.TrimSpace(strings.TrimPrefix(rest, f[0]+" attrs")))
		if len(attrs) == 0 {
			return nil, p.errf("persist wants at least one attribute")
		}
		return &rules.PersistAction{Table: f[0], Attrs: attrs}, nil
	}
	return nil, p.errf("persist wants 'persist <table> attrs <a, b, …>' or 'persist <table> from <LAT>'")
}

// parseTimer parses `<name> period <dur> count <n>` or `<name> off`.
func (p *setParser) parseTimer(rest string) (rules.Action, error) {
	f := strings.Fields(rest)
	if len(f) == 2 && f[1] == "off" {
		return &rules.SetTimerAction{Timer: f[0]}, nil
	}
	if len(f) != 5 || f[1] != "period" || f[3] != "count" {
		return nil, p.errf("timer wants 'timer <name> period <duration> count <n>' or 'timer <name> off'")
	}
	d, err := time.ParseDuration(f[2])
	if err != nil {
		return nil, p.errf("timer period: %v", err)
	}
	n, err := strconv.Atoi(f[4])
	if err != nil {
		return nil, p.errf("timer count wants an integer, got %q", f[4])
	}
	return &rules.SetTimerAction{Timer: f[0], Period: d, Count: n}, nil
}

// splitCommaList splits "a, b, c" into trimmed non-empty fields.
func splitCommaList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if t := strings.TrimSpace(part); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// quotedStrings parses a sequence of double-quoted strings ("" escapes a
// quote inside).
func quotedStrings(s string) ([]string, error) {
	var out []string
	i := 0
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) {
			return out, nil
		}
		if s[i] != '"' {
			return nil, fmt.Errorf("expected '\"' at %q", s[i:])
		}
		i++
		var b strings.Builder
		for {
			if i >= len(s) {
				return nil, fmt.Errorf("unterminated string")
			}
			if s[i] == '"' {
				if i+1 < len(s) && s[i+1] == '"' {
					b.WriteByte('"')
					i += 2
					continue
				}
				i++
				break
			}
			b.WriteByte(s[i])
			i++
		}
		out = append(out, b.String())
	}
}
