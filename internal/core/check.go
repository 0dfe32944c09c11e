package core

import (
	"fmt"
	"sort"
	"strings"

	"sqlcm/internal/monitor"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
)

// Static rule analysis (internal/rulecheck). In Warn mode (the default)
// registration analyses nothing; CheckRules analyses the live rule set
// when asked. In Strict mode AddRule/NewRule run one Check over the live
// set plus the candidate and reject the candidate when an error-severity
// finding names it, so findings of other rules never block it.
// LoadRuleSet applies a whole declarative .rules file after a single
// closed-world check.

// vetRule rejects r in Strict mode when an error-severity finding of the
// live set plus r names r.
func (s *SQLCM) vetRule(r *rules.Rule) error {
	if s.checkMode != rulecheck.Strict {
		return nil
	}
	set := s.liveSet()
	set.Rules = append(set.Rules, r)
	var mine []rulecheck.Diagnostic
	for _, d := range rulecheck.Check(set) {
		if d.Rule == r.Name {
			mine = append(mine, d)
		}
	}
	if rulecheck.HasErrors(mine) {
		return fmt.Errorf("core: rule %q rejected by static analysis:\n%s",
			r.Name, renderDiags(mine, rulecheck.Error))
	}
	return nil
}

// liveSet builds the analyser's view of the installed LATs and rules.
func (s *SQLCM) liveSet() *rulecheck.Set {
	set := &rulecheck.Set{}
	s.latMu.RLock()
	for _, t := range s.lats {
		set.LATs = append(set.LATs, t.Spec())
	}
	s.latMu.RUnlock()
	sort.Slice(set.LATs, func(i, j int) bool { return set.LATs[i].Name < set.LATs[j].Name })
	for _, name := range s.ruleEng.Rules() {
		if r, ok := s.ruleEng.Rule(name); ok {
			set.Rules = append(set.Rules, r)
		}
	}
	return set
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

// CheckRules analyses the live rule set and returns every finding.
func (s *SQLCM) CheckRules() []rulecheck.Diagnostic {
	return rulecheck.Check(s.liveSet())
}

// LoadRuleSet parses a declarative .rules file (LAT declarations plus
// rules; see internal/rulecheck) and installs it. In Strict mode the file
// is first analysed as a closed set together with the already-registered
// LATs and rules, and any error-severity finding rejects the whole file.
// Previously registered LATs and rules are visible to the new ones (and
// vice versa for trigger analysis). A file that fails to install leaves
// nothing of itself behind.
func (s *SQLCM) LoadRuleSet(src string) error {
	set, parseDiags, err := rulecheck.ParseSet(src)
	if err != nil {
		return err
	}
	if rulecheck.HasErrors(parseDiags) {
		return fmt.Errorf("core: rule set rejected:\n%s", renderDiags(parseDiags, rulecheck.Error))
	}
	if s.checkMode == rulecheck.Strict {
		merged := s.liveSet()
		merged.LATs = append(merged.LATs, set.LATs...)
		merged.Rules = append(merged.Rules, set.Rules...)
		merged.Closed = true
		merged.MaxTriggerDepth = set.MaxTriggerDepth
		if diags := rulecheck.Check(merged); rulecheck.HasErrors(diags) {
			return fmt.Errorf("core: rule set rejected by static analysis:\n%s",
				renderDiags(diags, rulecheck.Error))
		}
	}
	// undo takes back the first nLATs LATs and nRules rules of the file.
	undo := func(nLATs, nRules int, err error) error {
		for _, r := range set.Rules[:nRules] {
			s.RemoveRule(r.Name)
		}
		for _, spec := range set.LATs[:nLATs] {
			s.DropLAT(spec.Name)
		}
		return err
	}
	for i, spec := range set.LATs {
		if _, err := s.DefineLAT(spec); err != nil {
			return undo(i, 0, err)
		}
	}
	for i, r := range set.Rules {
		// Not AddRule: in Strict mode the file was vetted as a whole
		// above, and a per-rule check would see it only in part.
		if err := s.installRule(r); err != nil {
			return undo(len(set.LATs), i, err)
		}
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
