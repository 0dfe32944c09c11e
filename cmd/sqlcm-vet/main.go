// Command sqlcm-vet statically analyzes SQLCM rule sets and, with -code,
// the monitoring engine's own Go source.
//
// Usage:
//
//	sqlcm-vet [-mode strict|warn] file.rules [dir ...]
//	sqlcm-vet -code [dir ...]
//	sqlcm-vet -lockdoc [-write] [dir]
//	sqlcm-vet -analyzers
//
// In rules mode each argument is a .rules file or a directory searched
// recursively for .rules files. Every file is parsed and the whole set is
// checked: condition type errors against the monitored-class schemas,
// unsatisfiable (dead) and always-true conditions, dangling LAT
// references, trigger cycles and excessive trigger nesting, and
// duplicate/shadowed rules.
//
// In -code mode each argument is a directory tree whose Go packages are
// loaded, type-checked (offline, against GOROOT source) and run through
// SQLCM's custom source analyzers (see internal/analysis): no clock reads
// in //sqlcm:hotpath functions, guarded-field access under the declared
// lock class (//sqlcm:guards, //sqlcm:guarded-by), COW publish
// checking for //sqlcm:cow snapshots, and the lock hierarchy (declared
// //sqlcm:lock order, missing unlocks, sends and outbox enqueues under
// latches, unclassed mutexes), which order-checks a call into another
// package that can reach a classified latch like a local acquire. An
// unknown //sqlcm: verb or a reasonless //sqlcm:allow is a finding too.
// -analyzers lists the registered checks.
//
// In -lockdoc mode the tree's //sqlcm:lock, //sqlcm:guards,
// //sqlcm:guarded-by and //sqlcm:cow annotations are rendered as
// docs/lock-order.md (order table plus the fields each class guards):
// with -write the file is regenerated, without it the command fails if
// the checked-in document is stale.
//
// Exit status is 1 if any error-severity finding (or unreadable input)
// was reported; -mode strict also fails on warnings.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"sqlcm/internal/analysis"
	"sqlcm/internal/rulecheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("sqlcm-vet", flag.ContinueOnError)
	fs.SetOutput(errw)
	mode := fs.String("mode", "warn", "strict|warn: strict also fails on warnings")
	code := fs.Bool("code", false, "analyze Go source trees instead of .rules files")
	lockdoc := fs.Bool("lockdoc", false, "check docs/lock-order.md against the //sqlcm:lock annotations")
	write := fs.Bool("write", false, "with -lockdoc: regenerate docs/lock-order.md instead of checking it")
	analyzers := fs.Bool("analyzers", false, "list the registered -code analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(errw, "usage: sqlcm-vet [-mode strict|warn] file.rules [dir ...]\n")
		fmt.Fprintf(errw, "       sqlcm-vet -code [dir ...]\n")
		fmt.Fprintf(errw, "       sqlcm-vet -lockdoc [-write] [dir]\n")
		fmt.Fprintf(errw, "       sqlcm-vet -analyzers\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *analyzers {
		for _, a := range analysis.All() {
			fmt.Fprintf(out, "%-12s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}
	if *mode != "strict" && *mode != "warn" {
		fmt.Fprintf(errw, "sqlcm-vet: unknown -mode %q (want strict or warn)\n", *mode)
		return 2
	}
	paths := fs.Args()
	if len(paths) == 0 {
		if *code || *lockdoc {
			paths = []string{"."}
		} else {
			fs.Usage()
			return 2
		}
	}

	var errs, warns int
	switch {
	case *lockdoc:
		errs = runLockDoc(paths, *write, out, errw)
	case *code:
		errs = runCode(paths, out, errw)
	default:
		errs, warns = runRules(paths, out, errw)
	}

	if errs > 0 || (*mode == "strict" && warns > 0) {
		return 1
	}
	return 0
}

// runCode analyzes Go source trees. Every finding from the source
// analyzers is a hard error: the annotations are opt-in, so a finding
// means annotated code regressed.
func runCode(roots []string, out, errw io.Writer) (errs int) {
	for _, root := range roots {
		diags, err := analysis.RunTree(root)
		if err != nil {
			fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
			errs++
			continue
		}
		for _, d := range diags {
			fmt.Fprintln(out, d)
			errs++
		}
	}
	return errs
}

// firstLine truncates an analyzer doc to its first sentence line.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// runLockDoc regenerates (or staleness-checks) docs/lock-order.md under
// the first root. One root is the expected usage; extra roots are checked
// against their own docs/lock-order.md too.
func runLockDoc(roots []string, write bool, out, errw io.Writer) (errs int) {
	for _, root := range roots {
		prog, err := analysis.LoadTree(root)
		if err != nil {
			fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
			errs++
			continue
		}
		want := prog.LockOrderDoc()
		docPath := filepath.Join(root, "docs", "lock-order.md")
		if write {
			if err := os.MkdirAll(filepath.Dir(docPath), 0o755); err != nil {
				fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
				errs++
				continue
			}
			if err := os.WriteFile(docPath, []byte(want), 0o644); err != nil {
				fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
				errs++
				continue
			}
			fmt.Fprintf(out, "wrote %s\n", docPath)
			continue
		}
		got, err := os.ReadFile(docPath)
		if err != nil {
			fmt.Fprintf(errw, "sqlcm-vet: %v (generate it with sqlcm-vet -lockdoc -write)\n", err)
			errs++
			continue
		}
		if string(got) != want {
			fmt.Fprintf(out, "%s is stale relative to the //sqlcm:lock annotations; regenerate with sqlcm-vet -lockdoc -write\n", docPath)
			errs++
		}
	}
	return errs
}

// runRules checks every .rules file reachable from the arguments.
func runRules(paths []string, out, errw io.Writer) (errs, warns int) {
	for _, path := range expandRules(paths, errw, &errs) {
		e, w := checkRulesFile(path, out, errw)
		errs += e
		warns += w
	}
	return errs, warns
}

// expandRules resolves arguments to .rules files, walking directories.
func expandRules(paths []string, errw io.Writer, errs *int) []string {
	var files []string
	for _, path := range paths {
		info, err := os.Stat(path)
		if err != nil {
			fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
			*errs++
			continue
		}
		if !info.IsDir() {
			files = append(files, path)
			continue
		}
		err = filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".rules") {
				files = append(files, p)
			}
			return nil
		})
		if err != nil {
			fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
			*errs++
		}
	}
	return files
}

func checkRulesFile(path string, out, errw io.Writer) (errs, warns int) {
	src, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(errw, "sqlcm-vet: %v\n", err)
		return 1, 0
	}
	set, diags, err := rulecheck.ParseSet(string(src))
	if err != nil {
		fmt.Fprintf(out, "%s: %v\n", path, err)
		return 1, 0
	}
	diags = append(diags, rulecheck.Check(set)...)
	for _, d := range diags {
		fmt.Fprintf(out, "%s: %s\n", path, d)
		if d.Severity == rulecheck.Error {
			errs++
		} else {
			warns++
		}
	}
	return errs, warns
}
