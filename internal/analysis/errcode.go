package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// ErrCode keeps internal/server/errcode the single source of SQLSTATE
// truth. The wire taxonomy carries semantics beyond the five characters —
// retryability class and monitored-event mapping — so a raw "53400"-style
// literal anywhere else is a finding: it would let a new refusal path put
// a code on the wire that the retry policy and the monitoring schema have
// never heard of. Test files are scanned too (a test asserting on a raw
// literal pins the wire format behind the table's back).
var ErrCode = &Analyzer{
	Name: "errcode",
	Doc:  "SQLSTATE string literals may appear only in internal/server/errcode",
	Run:  runErrCode,
}

// sqlstateClasses are the two-character SQLSTATE classes this system (or
// a plausible neighbor) uses; a literal only counts as a SQLSTATE when
// its class is recognizable, which keeps ordinary five-character
// uppercase words out.
var sqlstateClasses = map[string]bool{
	"08": true, "22": true, "23": true, "25": true, "26": true,
	"28": true, "40": true, "42": true, "53": true, "54": true,
	"55": true, "57": true, "58": true,
}

func runErrCode(p *Pass) {
	if strings.HasSuffix(p.Pkg.Path, "internal/server/errcode") {
		return // the one sanctioned home of raw SQLSTATE literals
	}
	files := append(append([]*ast.File(nil), p.Pkg.Files...), p.Pkg.TestFiles...)
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || !looksLikeSQLSTATE(s) {
				return true
			}
			if p.allowed(lit.Pos()) {
				return true
			}
			p.Reportf(lit.Pos(),
				"raw SQLSTATE literal %q: use the internal/server/errcode table (codes carry retryability and event mapping the literal loses)",
				s)
			return true
		})
	}
}

// looksLikeSQLSTATE matches five-character [0-9A-Z] strings with a
// recognizable class prefix and at least one digit.
func looksLikeSQLSTATE(s string) bool {
	if len(s) != 5 {
		return false
	}
	digits := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9':
			digits++
		case c >= 'A' && c <= 'Z':
		default:
			return false
		}
	}
	return digits > 0 && sqlstateClasses[s[:2]]
}
