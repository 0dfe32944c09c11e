package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"sqlcm/internal/monitor"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
)

// Static rule analysis at registration time. Every AddRule/NewRule runs
// internal/rulecheck over the whole rule set (existing rules plus the
// candidate): in Strict mode error-severity findings reject the rule; in
// Warn mode (the default) they are recorded and retrievable via
// RuleWarnings. LoadRuleSet applies a whole declarative .rules file
// after a single closed-world check.

// ruleChecker holds the analysis state of one SQLCM instance.
type ruleChecker struct {
	mode rulecheck.Mode

	// mu protects the per-rule source and diagnostic maps.
	//sqlcm:lock core.rulecheck
	//sqlcm:guards condSrc, diags
	mu sync.Mutex
	// condSrc remembers each rule's original condition text so
	// diagnostics can carry source offsets.
	condSrc map[string]string
	// diags holds the findings recorded per rule in Warn mode.
	diags map[string][]rulecheck.Diagnostic
}

// vetRule analyses the candidate rule against the current rule set.
// Returns the findings newly introduced by the candidate; in Strict mode
// an error when any of them is error-severity.
func (s *SQLCM) vetRule(r *rules.Rule, condSrc string) ([]rulecheck.Diagnostic, error) {
	before := s.snapshotSet(nil, "")
	after := s.snapshotSet(r, condSrc)
	fresh := diffDiags(rulecheck.Check(before), rulecheck.Check(after))
	if s.check.mode == rulecheck.Strict && rulecheck.HasErrors(fresh) {
		return nil, fmt.Errorf("core: rule %q rejected by static analysis:\n%s",
			r.Name, renderDiags(fresh, rulecheck.Error))
	}
	return fresh, nil
}

// snapshotSet builds the analyser's view of the live rule set, with an
// optional extra candidate rule appended.
func (s *SQLCM) snapshotSet(extra *rules.Rule, extraSrc string) *rulecheck.Set {
	set := &rulecheck.Set{}
	s.latMu.RLock()
	for _, t := range s.lats {
		set.LATs = append(set.LATs, t.Spec())
	}
	s.latMu.RUnlock()
	sort.Slice(set.LATs, func(i, j int) bool { return set.LATs[i].Name < set.LATs[j].Name })
	s.check.mu.Lock()
	srcs := make(map[string]string, len(s.check.condSrc))
	for k, v := range s.check.condSrc {
		srcs[k] = v
	}
	s.check.mu.Unlock()
	for _, name := range s.ruleEng.Rules() {
		r, ok := s.ruleEng.Rule(name)
		if !ok {
			continue
		}
		set.Rules = append(set.Rules, ruleDefOf(r, srcs[name]))
	}
	if extra != nil {
		set.Rules = append(set.Rules, ruleDefOf(extra, extraSrc))
	}
	return set
}

// ruleDefOf converts a live rule to the analyser's representation. Rules
// registered programmatically (no source text) fall back to the parsed
// condition's canonical rendering so positions still point somewhere
// meaningful.
func ruleDefOf(r *rules.Rule, condSrc string) rulecheck.RuleDef {
	if condSrc == "" && r.Condition != nil {
		condSrc = r.Condition.String()
	}
	return rulecheck.RuleDef{
		Name:    r.Name,
		Event:   r.Event,
		CondSrc: condSrc,
		Cond:    r.Condition,
		Actions: r.Actions,
	}
}

// diffDiags returns the diagnostics in after that are not in before
// (the findings attributable to the candidate rule, including trigger
// cycles it closes through existing rules).
func diffDiags(before, after []rulecheck.Diagnostic) []rulecheck.Diagnostic {
	seen := make(map[rulecheck.Diagnostic]bool, len(before))
	for _, d := range before {
		seen[d] = true
	}
	var out []rulecheck.Diagnostic
	for _, d := range after {
		if !seen[d] {
			out = append(out, d)
		}
	}
	return out
}

// renderDiags renders diagnostics of at-least the given severity, one
// per line.
func renderDiags(diags []rulecheck.Diagnostic, min rulecheck.Severity) string {
	var b strings.Builder
	for _, d := range diags {
		if d.Severity < min {
			continue
		}
		b.WriteString("  " + d.String() + "\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// recordRule stores the source text and findings of a registered rule.
func (s *SQLCM) recordRule(name, condSrc string, diags []rulecheck.Diagnostic) {
	s.check.mu.Lock()
	defer s.check.mu.Unlock()
	if condSrc != "" {
		if s.check.condSrc == nil {
			s.check.condSrc = make(map[string]string)
		}
		s.check.condSrc[name] = condSrc
	}
	if len(diags) > 0 {
		if s.check.diags == nil {
			s.check.diags = make(map[string][]rulecheck.Diagnostic)
		}
		s.check.diags[name] = append(s.check.diags[name], diags...)
	}
}

// forgetRule drops the recorded analysis state of a removed rule.
func (s *SQLCM) forgetRule(name string) {
	s.check.mu.Lock()
	delete(s.check.condSrc, name)
	delete(s.check.diags, name)
	s.check.mu.Unlock()
}

// RuleWarnings returns the findings recorded at registration time (Warn
// mode), ordered by rule name.
func (s *SQLCM) RuleWarnings() []rulecheck.Diagnostic {
	s.check.mu.Lock()
	defer s.check.mu.Unlock()
	names := make([]string, 0, len(s.check.diags))
	for n := range s.check.diags {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []rulecheck.Diagnostic
	for _, n := range names {
		out = append(out, s.check.diags[n]...)
	}
	return out
}

// CheckRules re-analyses the complete live rule set on demand and
// returns every finding.
func (s *SQLCM) CheckRules() []rulecheck.Diagnostic {
	return rulecheck.Check(s.snapshotSet(nil, ""))
}

// LoadRuleSet parses a declarative .rules file (LAT declarations plus
// rules; see internal/rulecheck), analyses it as a closed set together
// with the already-registered LATs and rules, and installs it. In
// Strict mode any error-severity finding rejects the whole file; in
// Warn mode findings are recorded. Previously registered LATs and rules
// are visible to the new ones (and vice versa for trigger analysis).
func (s *SQLCM) LoadRuleSet(src string) error {
	set, parseDiags, err := rulecheck.ParseSet(src)
	if err != nil {
		return err
	}
	if rulecheck.HasErrors(parseDiags) {
		return fmt.Errorf("core: rule set rejected:\n%s", renderDiags(parseDiags, rulecheck.Error))
	}
	// Analyse the file's declarations merged with the live set.
	merged := s.snapshotSet(nil, "")
	merged.LATs = append(merged.LATs, set.LATs...)
	merged.Rules = append(merged.Rules, set.Rules...)
	merged.Closed = true
	merged.MaxTriggerDepth = set.MaxTriggerDepth
	diags := rulecheck.Check(merged)
	if s.check.mode == rulecheck.Strict && rulecheck.HasErrors(diags) {
		return fmt.Errorf("core: rule set rejected by static analysis:\n%s",
			renderDiags(diags, rulecheck.Error))
	}
	for _, spec := range set.LATs {
		if _, err := s.DefineLAT(spec); err != nil {
			return err
		}
	}
	for i := range set.Rules {
		rd := &set.Rules[i]
		r := &rules.Rule{Name: rd.Name, Event: rd.Event, Condition: rd.Cond, Actions: rd.Actions}
		// The set was already vetted as a whole; install without the
		// per-rule incremental check.
		if err := s.installRule(r); err != nil {
			return err
		}
		var ruleDiags []rulecheck.Diagnostic
		for _, d := range diags {
			if d.Rule == rd.Name {
				ruleDiags = append(ruleDiags, d)
			}
		}
		s.recordRule(rd.Name, rd.CondSrc, ruleDiags)
	}
	return nil
}

// installRule registers a rule and installs eviction hooks when needed
// (the unchecked inner half of AddRule).
func (s *SQLCM) installRule(r *rules.Rule) error {
	if err := s.ruleEng.AddRule(r); err != nil {
		return err
	}
	if r.Event == monitor.EvLATRowEvicted {
		s.ensureEvictHooks()
	}
	return nil
}
