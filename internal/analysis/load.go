package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Program is one fully loaded and type-checked source tree: every module
// package under the root, in dependency (topological) order, each with
// its syntax, type information and exported facts. The loader is
// self-contained on the standard library — module-local imports are
// resolved by walking the tree, everything else (the standard library)
// is type-checked from GOROOT source via go/importer's source importer,
// so the whole pipeline works offline.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	RootDir    string
	// Packages lists the loaded packages in topological order: a
	// package's module-local imports precede it, so facts computed in
	// slice order are complete when a dependent package is analyzed.
	Packages []*Package

	byPath map[string]*Package

	// order is the declared lock-order DAG, built on first use from every
	// package's facts (single-threaded RunProgram).
	order *lockOrder
}

// Package is one loaded package: build-selected non-test files carry
// full type information; test files ride along parse-only (the literal
// scans cover them, the type-driven analyzers do not).
type Package struct {
	// Path is the import path ("sqlcm/internal/server"), or the
	// root-relative directory for tree roots without a go.mod.
	Path string
	Dir  string
	// Files are the build-selected non-test files, type-checked.
	Files []*ast.File
	// TestFiles are the package's _test.go files (in-package and
	// external), parsed but not type-checked.
	TestFiles []*ast.File
	Types     *types.Package
	Info      *types.Info
	Facts     *Facts
	// TypeErrors collects soft type-check failures. Empty for any tree
	// that `go build` accepts; fixture trees that deliberately do not
	// compile still get best-effort analysis from the partial info.
	TypeErrors []error

	// allow caches the //sqlcm:allow-covered lines per file name.
	allow map[string]map[int]bool
}

// PackageByPath returns the loaded package with the given import path.
func (p *Program) PackageByPath(path string) *Package { return p.byPath[path] }

// FactsFor returns the facts of the package defining obj, or nil when
// the object is not part of the loaded module (standard library).
func (p *Program) FactsFor(obj types.Object) *Facts {
	if obj == nil || obj.Pkg() == nil {
		return nil
	}
	if pkg := p.byPath[obj.Pkg().Path()]; pkg != nil {
		return pkg.Facts
	}
	return nil
}

// loadMu serializes loads: the shared file set and the shared standard-
// library source importer below are not safe for concurrent use.
var loadMu sync.Mutex

// sharedFset is the process-wide file set. Sharing it across loads lets
// the standard-library importer's internal cache be reused by every
// LoadTree call (tests load many small trees; re-type-checking fmt for
// each would dominate their runtime).
var sharedFset = token.NewFileSet()

// stdImporter type-checks standard-library packages from GOROOT source.
var stdImporter = importer.ForCompiler(sharedFset, "source", nil)

// LoadTree loads, parses and type-checks every package directory under
// root. With a go.mod at root, packages get their real module import
// paths and module-local imports resolve within the tree; without one
// (fixture trees), packages are keyed by their root-relative directory
// and may import only the standard library.
func LoadTree(root string) (*Program, error) {
	loadMu.Lock() //sqlcm:allow driver-internal serialization of the shared fset/importer, not an engine latch
	defer loadMu.Unlock()

	// Keep the root as given (cleaned, not absolutized) so diagnostic
	// positions stay relative — golden files depend on stable paths.
	absRoot := filepath.Clean(root)
	prog := &Program{
		Fset:       sharedFset,
		ModulePath: readModulePath(absRoot),
		RootDir:    absRoot,
		byPath:     map[string]*Package{},
	}

	dirs, err := packageDirs(absRoot)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := parseDir(prog, dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.byPath[pkg.Path] = pkg
		}
	}

	order, err := topoOrder(prog)
	if err != nil {
		return nil, err
	}
	imp := &programImporter{prog: prog}
	for _, pkg := range order {
		typeCheck(prog, pkg, imp)
		computeFacts(prog, pkg)
		prog.Packages = append(prog.Packages, pkg)
	}
	return prog, nil
}

// readModulePath extracts the module path from root/go.mod ("" if none).
func readModulePath(root string) string {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// packageDirs walks root for package directories, skipping testdata,
// vendor and hidden directories.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses one directory into a Package (nil if it holds no
// build-selected Go files).
func parseDir(prog *Program, dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Dir: dir, Path: importPathFor(prog, dir)}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if !buildSelected(string(data)) {
			continue
		}
		f, err := parser.ParseFile(prog.Fset, path, data, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil, nil
	}
	return pkg, nil
}

// importPathFor maps a directory to its import path under the module
// (or its root-relative slash path for module-less fixture trees).
func importPathFor(prog *Program, dir string) string {
	rel, err := filepath.Rel(prog.RootDir, dir)
	if err != nil || rel == "." {
		if prog.ModulePath != "" {
			return prog.ModulePath
		}
		return filepath.ToSlash(filepath.Base(prog.RootDir))
	}
	rel = filepath.ToSlash(rel)
	if prog.ModulePath != "" {
		return prog.ModulePath + "/" + rel
	}
	return rel
}

// buildSelected evaluates a file's //go:build constraint under the
// default build configuration: current GOOS/GOARCH, gc, current
// language version, and no custom tags, exactly as in a default
// `go build`.
func buildSelected(src string) bool {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return true
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
				strings.HasPrefix(tag, "go1.")
		})
	}
	return true
}

// topoOrder sorts the module's packages so every module-local import
// precedes its importer.
func topoOrder(prog *Program) ([]*Package, error) {
	paths := make([]string, 0, len(prog.byPath))
	for p := range prog.byPath {
		paths = append(paths, p)
	}
	sort.Strings(paths)

	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var order []*Package
	var visit func(path string) error
	visit = func(path string) error {
		pkg := prog.byPath[path]
		color[path] = grey
		for _, dep := range moduleImports(prog, pkg) {
			switch color[dep] {
			case grey:
				return fmt.Errorf("analysis: import cycle through %s and %s", path, dep)
			case white:
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		color[path] = black
		order = append(order, pkg)
		return nil
	}
	for _, path := range paths {
		if color[path] == white {
			if err := visit(path); err != nil {
				return nil, err
			}
		}
	}
	return order, nil
}

// moduleImports lists pkg's imports that resolve inside the loaded tree.
func moduleImports(prog *Program, pkg *Package) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			if prog.byPath[path] != nil {
				out = append(out, path)
			}
		}
	}
	sort.Strings(out)
	return out
}

// programImporter resolves imports during type checking: module-local
// paths from the already-checked tree, everything else from GOROOT
// source.
type programImporter struct {
	prog *Program
}

func (imp *programImporter) Import(path string) (*types.Package, error) {
	if pkg := imp.prog.byPath[path]; pkg != nil {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: import %q not yet type-checked (cycle?)", path)
		}
		return pkg.Types, nil
	}
	return stdImporter.Import(path)
}

// typeCheck runs go/types over one package's non-test files. Soft
// errors are collected, not fatal: the analyzers degrade gracefully on
// partial information (and any tree that `go build` accepts has none).
func typeCheck(prog *Program, pkg *Package, imp types.Importer) {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	// Check returns a usable (if incomplete) package even on soft errors.
	pkg.Types, _ = conf.Check(pkg.Path, prog.Fset, pkg.Files, pkg.Info)
}
