// Package rulesets embeds the examples' rule sets: examples/<name> loads
// <name>.rules from FS with DB.LoadRuleSet.
package rulesets

import "embed"

// FS holds the .rules files.
//
//go:embed *.rules
var FS embed.FS
