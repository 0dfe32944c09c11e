package core

import (
	"fmt"
	"strings"

	"sqlcm/internal/lat"
	"sqlcm/internal/monitor"
	"sqlcm/internal/rulecheck"
	"sqlcm/internal/rules"
)

// Static rule analysis (internal/rulecheck). In Warn mode (the default)
// registration analyses nothing; CheckRules analyses the live rule set
// when asked. In Strict mode AddRule/NewRule and LoadRuleSet run one
// Check of what the call adds against the live set and reject the call
// when an error-severity finding names a rule or LAT it adds, so findings
// of live rules never block it. A .rules file is checked as a closed
// world: with the live set, it must be complete.

// vet rejects add in Strict mode when Check reports an error-severity
// finding for it; what names the registration in the error.
func (s *SQLCM) vet(add *rulecheck.Set, what string) error {
	if s.checkMode != rulecheck.Strict {
		return nil
	}
	if diags := rulecheck.Check(s.liveSet(), add); rulecheck.HasErrors(diags) {
		return fmt.Errorf("core: %s rejected by static analysis:\n%s", what, renderDiags(diags, rulecheck.Error))
	}
	return nil
}

// liveSet builds the analyser's view of the installed LATs and rules.
func (s *SQLCM) liveSet() *rulecheck.Set {
	set := &rulecheck.Set{Rules: s.ruleEng.Snapshot()}
	s.latMu.RLock()
	set.LATs = make([]lat.Spec, 0, len(s.lats))
	for _, t := range s.lats {
		set.LATs = append(set.LATs, t.Spec())
	}
	s.latMu.RUnlock()
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
	return rulecheck.Check(nil, s.liveSet())
}

// LoadRuleSet parses a declarative .rules file (LAT declarations plus
// rules; see internal/rulecheck) and installs it. In Strict mode the file
// is first analysed as a closed set against the already-registered LATs
// and rules, which its rules may reference, and an error-severity finding
// that names one of its rules or LATs rejects the whole file. A file that
// fails to install leaves nothing of itself behind.
func (s *SQLCM) LoadRuleSet(src string) error {
	set, parseDiags, err := rulecheck.ParseSet(src)
	if err != nil {
		return err
	}
	if rulecheck.HasErrors(parseDiags) {
		return fmt.Errorf("core: rule set rejected:\n%s", renderDiags(parseDiags, rulecheck.Error))
	}
	if err := s.vet(set, "rule set"); err != nil {
		return err
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
