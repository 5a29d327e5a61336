package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path the package was resolved under.
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages rooted at a directory using only
// the standard library. Imports are resolved in three tiers:
//
//  1. paths under Module map into subdirectories of Dir (module layout);
//  2. with Module == "", any path whose directory exists under Dir maps
//     there (GOPATH-style layout, used by analysistest testdata trees);
//  3. everything else goes to the toolchain's "source" importer, which
//     type-checks the standard library from GOROOT source and therefore
//     needs no pre-built export data and no network.
//
// Dependencies are always loaded without test files; only packages
// requested through Load honor IncludeTests. That keeps in-package test
// files — which may import sibling packages that import this one — from
// manufacturing spurious import cycles.
type Loader struct {
	// Dir is the root directory packages are resolved under.
	Dir string
	// Module is the import-path prefix corresponding to Dir ("" selects
	// the GOPATH-style layout of tier 2).
	Module string
	// IncludeTests adds in-package _test.go files to packages requested
	// via Load. External test packages (package foo_test) are never
	// loaded.
	IncludeTests bool

	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

// Fset returns the loader's file set, creating it on first use.
func (l *Loader) Fset() *token.FileSet {
	if l.fset == nil {
		l.fset = token.NewFileSet()
	}
	return l.fset
}

func (l *Loader) init() {
	l.Fset()
	if l.std == nil {
		l.std = importer.ForCompiler(l.fset, "source", nil)
	}
	if l.pkgs == nil {
		l.pkgs = make(map[string]*Package)
		l.loading = make(map[string]bool)
	}
}

// Load resolves the given patterns ("./...", "./internal/fp",
// "<module>/internal/...", ".") to package directories under Dir and
// returns the type-checked packages in deterministic (path-sorted) order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	l.init()
	dirs, err := l.resolveDirs(patterns...)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	sort.Strings(paths)
	var out []*Package
	for _, path := range paths {
		pkg, err := l.load(path, l.IncludeTests)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// resolveDirs expands the patterns to the sorted package directories
// they denote, without parsing or type-checking anything.
func (l *Loader) resolveDirs(patterns ...string) ([]string, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rel, recursive, err := l.patternRel(pat)
		if err != nil {
			return nil, err
		}
		root := filepath.Join(l.Dir, rel)
		if !recursive {
			dirs[root] = true
			continue
		}
		err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				dirs[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("walking %s: %w", pat, err)
		}
	}
	out := make([]string, 0, len(dirs))
	for dir := range dirs {
		out = append(out, dir)
	}
	sort.Strings(out)
	return out, nil
}

// Lookup returns the already-loaded package for an import path, loading
// it (without test files) on first request if it resolves to a local
// directory. It is the driver's bridge for analyzing dependencies of the
// requested packages: facts must exist for everything they import.
func (l *Loader) Lookup(path string) *Package {
	l.init()
	if pkg, ok := l.pkgs[path]; ok {
		return pkg
	}
	if !hasGoFiles(l.dirFor(path)) {
		return nil
	}
	if l.Module != "" && path != l.Module && !strings.HasPrefix(path, l.Module+"/") {
		return nil
	}
	pkg, err := l.load(path, false)
	if err != nil {
		return nil
	}
	return pkg
}

// patternRel converts a package pattern to a Dir-relative directory and a
// recursive flag.
func (l *Loader) patternRel(pat string) (rel string, recursive bool, err error) {
	p := pat
	if l.Module != "" {
		if p == l.Module {
			p = "."
		} else if rest, ok := strings.CutPrefix(p, l.Module+"/"); ok {
			p = "./" + rest
		}
	}
	if rest, ok := strings.CutSuffix(p, "/..."); ok {
		recursive = true
		p = rest
		if p == "." || p == "" {
			return ".", true, nil
		}
	} else if p == "..." {
		return ".", true, nil
	}
	p = filepath.Clean(p)
	if filepath.IsAbs(p) || strings.HasPrefix(p, "..") {
		return "", false, fmt.Errorf("pattern %q escapes %s", pat, l.Dir)
	}
	return p, recursive, nil
}

func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Dir, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	switch {
	case rel == ".":
		if l.Module == "" {
			return "", fmt.Errorf("cannot load the root directory of a GOPATH-style tree")
		}
		return l.Module, nil
	case l.Module == "":
		return rel, nil
	default:
		return l.Module + "/" + rel, nil
	}
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_") {
			return true
		}
	}
	return false
}

// Import implements types.Importer, making the loader usable as the
// import resolver for its own type-checking passes.
func (l *Loader) Import(path string) (*types.Package, error) {
	l.init()
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.Module != "" {
		if path == l.Module {
			pkg, err := l.load(path, false)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
		if rest, ok := strings.CutPrefix(path, l.Module+"/"); ok {
			if _, err := os.Stat(filepath.Join(l.Dir, filepath.FromSlash(rest))); err != nil {
				return nil, fmt.Errorf("package %s not found under %s", path, l.Dir)
			}
			pkg, err := l.load(path, false)
			if err != nil {
				return nil, err
			}
			return pkg.Types, nil
		}
	} else if hasGoFiles(filepath.Join(l.Dir, filepath.FromSlash(path))) {
		pkg, err := l.load(path, false)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps an already-validated local import path to its directory.
func (l *Loader) dirFor(path string) string {
	rel := path
	if l.Module != "" {
		rel = strings.TrimPrefix(strings.TrimPrefix(path, l.Module), "/")
	}
	return filepath.Join(l.Dir, filepath.FromSlash(rel))
}

func (l *Loader) load(path string, includeTests bool) (*Package, error) {
	key := path
	if includeTests {
		key += " [tests]"
	}
	if pkg, ok := l.pkgs[key]; ok {
		return pkg, nil
	}
	if l.loading[key] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[key] = true
	defer delete(l.loading, key)

	dir := l.dirFor(path)
	files, err := l.parseDir(dir, includeTests)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	tpkg, _ := conf.Check(path, l.fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors in %s:\n  %s", path, strings.Join(typeErrs, "\n  "))
	}
	pkg := &Package{
		Path:      path,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.pkgs[key] = pkg
	return pkg, nil
}

// parseDir parses the directory's package files: all non-test files of
// the primary (non-_test-suffixed) package, plus its in-package test
// files when includeTests is set. Files are returned in name order so
// type-checking and diagnostics are deterministic.
func (l *Loader) parseDir(dir string, includeTests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type parsed struct {
		name string
		test bool
		file *ast.File
	}
	var candidates []parsed
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		test := strings.HasSuffix(name, "_test.go")
		if test && !includeTests {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		candidates = append(candidates, parsed{name, test, f})
	}
	primary := ""
	for _, c := range candidates {
		if !c.test {
			if name := c.file.Name.Name; primary == "" {
				primary = name
			} else if name != primary {
				return nil, fmt.Errorf("multiple packages in %s: %s and %s", dir, primary, name)
			}
		}
	}
	if primary == "" {
		return nil, fmt.Errorf("no non-test Go files in %s", dir)
	}
	var files []*ast.File
	for _, c := range candidates {
		if c.file.Name.Name == primary {
			files = append(files, c.file)
		}
	}
	return files, nil
}
