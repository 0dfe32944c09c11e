package analysis

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
)

// LockOrderDoc renders the program's declared lock hierarchy as the
// golden docs/lock-order.md. Output is deterministic and position-free
// (field names and repo-relative files, not line numbers), so it only
// changes when an annotation changes. Annotation problems (unknown
// classes, cycles) surface as lockclass findings, not here; the document
// renders what is declared.
func (p *Program) LockOrderDoc() string {
	o := p.lockOrder()
	var b strings.Builder
	b.WriteString("# Lock order\n\n")
	b.WriteString("Generated from `//sqlcm:lock`, `//sqlcm:guards`, `//sqlcm:guarded-by`\n")
	b.WriteString("and `//sqlcm:cow` annotations by `sqlcm-vet -lockdoc -write`.\n")
	b.WriteString("Do not edit by hand: `make lockdep` (and CI) fail when this file is\n")
	b.WriteString("stale relative to the annotations.\n\n")
	b.WriteString("A class may be acquired while holding only the classes it is declared\n")
	b.WriteString("`after` (transitively). Classes with no `after` clause are roots: they\n")
	b.WriteString("must be the outermost (or only) lock a goroutine holds. The static\n")
	b.WriteString("checker (`sqlcm-vet -code`) enforces this order at build time; the\n")
	b.WriteString("`sqlcmlockdep` build tag enforces it again at runtime.\n\n")
	b.WriteString("Guarded fields are the struct fields each class protects, declared\n")
	b.WriteString("with `//sqlcm:guards` on the mutex (or `//sqlcm:guarded-by` /\n")
	b.WriteString("`//sqlcm:cow` on the field) and enforced by the data-protection\n")
	b.WriteString("analyzers in `sqlcm-vet -code`.\n\n")

	names := sortedKeys(o.classes)
	b.WriteString("## Classes\n\n")
	b.WriteString("| Class | May be acquired while holding | Guarded fields | Declared on |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, n := range names {
		c := o.classes[n]
		after := "— (root)"
		if len(c.after) > 0 {
			after = strings.Join(sortedKeys(c.after), ", ")
		}
		guards := "—"
		if len(c.guards) > 0 {
			guards = fmt.Sprintf("`%s`", strings.Join(c.guards, "`, `"))
		}
		file := p.Fset.Position(c.decl).Filename
		if rel, err := filepath.Rel(p.RootDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		fmt.Fprintf(&b, "| %s | %s | %s | `%s` (%s) |\n", n, after, guards, strings.Join(c.fields, "`, `"), file)
	}

	b.WriteString("\n## Declared edges\n\n")
	edges := 0
	for _, n := range names {
		for _, a := range sortedKeys(o.classes[n].after) {
			fmt.Fprintf(&b, "- %s -> %s\n", a, n)
			edges++
		}
	}
	if edges == 0 {
		b.WriteString("(none: every class is a root)\n")
	}

	b.WriteString("\n## Chains\n\n")
	chains := o.chains(names)
	if len(chains) == 0 {
		b.WriteString("(no nesting declared)\n")
	}
	for _, ch := range chains {
		fmt.Fprintf(&b, "- %s\n", strings.Join(ch, " -> "))
	}
	return b.String()
}

// chains lists every maximal root-to-leaf path through the declared DAG,
// sorted. The SQLCM hierarchies are short, so full enumeration is cheap.
func (o *lockOrder) chains(names []string) [][]string {
	succs := map[string][]string{}
	hasPred := map[string]bool{}
	for _, n := range names {
		for _, a := range sortedKeys(o.classes[n].after) {
			if o.classes[a] != nil {
				succs[a] = append(succs[a], n)
				hasPred[n] = true
			}
		}
	}
	var chains [][]string
	var extend func(path []string)
	extend = func(path []string) {
		next := succs[path[len(path)-1]]
		if len(next) == 0 && len(path) > 1 {
			chains = append(chains, slices.Clone(path))
		}
		for _, n := range next {
			extend(append(path, n))
		}
	}
	for _, n := range names {
		if !hasPred[n] {
			extend([]string{n})
		}
	}
	slices.SortFunc(chains, func(a, b []string) int {
		return strings.Compare(strings.Join(a, " "), strings.Join(b, " "))
	})
	return chains
}
