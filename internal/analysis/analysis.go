// Package analysis is a self-contained static-analysis framework for the
// repo-specific invariant checkers under internal/analysis/... and the
// cmd/mixedrelvet multichecker.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic, Facts, Requires) so the analyzers could be ported to
// the real framework by changing imports, but the driver is built
// entirely on the standard library (go/parser + go/types + the "source"
// importer): the build environment has no module proxy access, and the
// invariants these analyzers enforce are too important to leave
// contingent on a network fetch.
//
// Beyond the per-package model of the original framework, the driver is
// an interprocedural fact engine:
//
//   - analyzers export typed Facts on functions, types and packages
//     (e.g. softfloat.UsesNativeFloat, determinism.NondetSource,
//     hotalloc.Allocates, compiledreplay.ConsumesTrace);
//   - packages are analyzed in topological import order, so a pass sees
//     the facts of everything it imports — taint propagates through
//     helpers in any package, not just the one under analysis;
//   - once-computed per-package artifacts (the AST inspector, the
//     intra-package call graph) are shared between analyzers through
//     Requires;
//   - import-independent packages run in parallel under the repo's own
//     bounded scheduler (exec.ForEach), with diagnostics sorted into a
//     byte-identical order at any worker count.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only selections.
	Name string
	// Doc is a one-paragraph description of the enforced invariant. The
	// first line is used as a summary.
	Doc string
	// Requires lists analyzers whose results this analyzer consumes via
	// Pass.ResultOf. They run first on the same package. Used for shared
	// per-package artifacts (inspect.Analyzer, callgraph.Analyzer).
	Requires []*Analyzer
	// Run applies the analyzer to one type-checked package, reporting
	// violations through pass.Report and exporting facts through
	// pass.ExportObjectFact / pass.ExportPackageFact. The returned value
	// is stored in Pass.ResultOf for analyzers that Require this one.
	Run func(*Pass) (interface{}, error)
}

// Fact is a typed datum an analyzer attaches to a function, type, or
// package, visible to later passes over importing packages.
// Implementations must be pointers to structs (imports copy the value
// into the caller's struct) and should implement fmt.Stringer for fact
// assertions in analysistest.
type Fact interface{ AFact() }

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path as resolved by the loader
	// ("mixedrel/internal/fp", or a testdata-relative path under
	// analysistest).
	Path string
	Fset *token.FileSet
	// Files holds the package's parsed files, including in-package
	// _test.go files when the loader was asked for them.
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
	// ResultOf holds the results of the analyzers named in
	// Analyzer.Requires, keyed by analyzer.
	ResultOf map[*Analyzer]interface{}

	// facts is the driver's fact accessor; directives the package's
	// parsed //mixedrelvet: comments. Both are populated by the driver.
	facts      *factAccess
	directives *directiveSet
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InTestFile reports whether pos falls in a _test.go file. Every analyzer
// in the suite restricts itself to non-test code: tests legitimately use
// native floats, wall clocks, goroutines and raw bit patterns to check
// the deterministic core from outside.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// Allowed reports whether node carries (or is covered by) an allow
// directive for this pass's analyzer:
//
//	//mixedrelvet:allow <analyzer-name> [reason]
//
// on the line of the node or the line above it. A matched directive is
// recorded as used; the driver reports directives that no analyzer ever
// matched, so stale exemptions surface as diagnostics instead of
// silently outliving the code they excused.
func (p *Pass) Allowed(file *ast.File, node ast.Node) bool {
	if node == nil || p.directives == nil {
		return false
	}
	return p.directives.allowed(p.Fset, file, node, p.Analyzer.Name)
}

// HotPath reports whether the declaration carries a
// //mixedrelvet:hotpath directive, marking it as a root whose transitive
// callees the hotalloc analyzer proves allocation-free. Matched
// directives are recorded as used.
func (p *Pass) HotPath(file *ast.File, node ast.Node) bool {
	if node == nil || p.directives == nil {
		return false
	}
	return p.directives.hotPath(p.Fset, file, node)
}

// ExportObjectFact attaches fact to obj, which must belong to the package
// under analysis. The fact becomes visible to this analyzer's passes over
// every package that (transitively) imports this one.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil || obj == nil || obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		return
	}
	p.facts.export(p, obj, fact)
}

// ImportObjectFact copies the fact of the receiver's type attached to obj
// into fact (a pointer), reporting whether one was found. obj may belong
// to any already-analyzed package, including the one under analysis.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.importObject(p.Analyzer.Name, obj, fact)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.facts == nil {
		return
	}
	p.facts.exportPackage(p, fact)
}

// ImportPackageFact copies the package fact of the receiver's type
// attached to pkg into fact, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if p.facts == nil || pkg == nil {
		return false
	}
	return p.facts.importPackage(p.Analyzer.Name, pkg.Path(), fact)
}

// Finding is a resolved diagnostic ready for printing or comparison.
type Finding struct {
	Analyzer string
	Package  string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// lessFinding orders findings by position then analyzer: the canonical,
// scheduling-independent output order.
func lessFinding(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// Named unwraps t to a *types.Named, looking through pointers but not
// through other composites. Returns nil if t is not (a pointer to) a
// named type.
func Named(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// IsPkgType reports whether t is (a pointer to) a named type called
// typeName declared in a package whose *name* is pkgName. Matching by
// package name rather than full import path keeps the analyzers testable
// under analysistest, where stand-in packages live at short fake import
// paths; no two packages in this repository share a name.
func IsPkgType(t types.Type, pkgName, typeName string) bool {
	n := Named(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// CalleeFunc resolves the called function or method of call, or nil for
// indirect calls through non-constant function values.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncShortName renders a function as Name or (Recv).Name without
// package qualification, the form used in diagnostics.
func FuncShortName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		q := func(*types.Package) string { return "" }
		return "(" + types.TypeString(sig.Recv().Type(), q) + ")." + fn.Name()
	}
	return fn.Name()
}
