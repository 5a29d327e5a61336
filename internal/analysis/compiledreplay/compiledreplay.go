// Package compiledreplay restricts who may use the compiled golden
// trace.
//
// internal/traceir serves recorded results in place of softfloat
// execution, which is only sound under the injector's compare-serving
// discipline: a result is handed out either after the live operand bits
// matched the recorded ones exactly, or under the replay induction that
// internal/inject maintains (no corruption applied yet, pristine
// inputs). Any other caller could replay recorded bits into a context
// where those preconditions do not hold and silently break the
// simulator's bit-exactness guarantee — the kind of bug no test sweep
// reliably catches, because the served bits are *almost always* right.
//
// The analyzer allows imports of internal/traceir only from the two
// packages that own the discipline: internal/exec (records and compiles
// the golden run) and internal/inject (serves faulty replays from it).
// It also catches consumption that needs no import at all: calling a
// method or reading a field of a traceir value obtained from another
// package (e.g. art.Trace().ServeScalar(...)) selects a traceir object
// without naming the package. Every package that touches the IR either
// way exports a ConsumesTrace package fact, so the boundary is auditable
// from the fact stream. Test files are exempt, as everywhere in the
// suite: equivalence and white-box tests legitimately drive the program
// from outside.
package compiledreplay

import (
	"go/ast"
	"strconv"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// ConsumesTrace marks a package that imports internal/traceir or
// selects its objects through values obtained elsewhere.
type ConsumesTrace struct{}

func (*ConsumesTrace) AFact() {}

func (*ConsumesTrace) String() string { return "consumesTrace" }

// Analyzer is the compiledreplay invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "compiledreplay",
	Doc:      "restrict internal/traceir use to internal/exec and internal/inject; compiled-trace serving is only sound under their compare/replay discipline",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// allowedImporters are the package paths (matched on their module-
// relative suffix) that may consume the trace IR.
var allowedImporters = []string{
	"internal/exec",
	"internal/inject",
	"internal/traceir",
}

func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	consumes := false

	trusted := false
	for _, allowed := range allowedImporters {
		if pathIs(pass.Path, allowed) {
			trusted = true
		}
	}

	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || !pathIs(path, "internal/traceir") {
				continue
			}
			consumes = true
			if !trusted && !pass.Allowed(file, spec) {
				pass.Reportf(spec.Pos(), "import of %s outside internal/exec and internal/inject; compiled-trace results are only exact under their compare-serving discipline", path)
			}
		}
	}

	// Selections on traceir values need no import: a *traceir.Program
	// handed out by another package brings its methods with it.
	ins.WithStack([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		sel := n.(*ast.SelectorExpr)
		if pass.InTestFile(sel.Pos()) {
			return true
		}
		if pass.TypesInfo.Selections[sel] == nil {
			return true // qualified identifier; the import check covers it
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil || !pathIs(obj.Pkg().Path(), "internal/traceir") {
			return true
		}
		consumes = true
		if trusted {
			return true
		}
		for _, anc := range stack {
			if pass.Allowed(file, anc) {
				return true
			}
		}
		pass.Reportf(sel.Sel.Pos(), "use of internal/traceir.%s through a value obtained from another package; compiled-trace results are only exact under the exec/inject compare-serving discipline", sel.Sel.Name)
		return true
	})

	if consumes || pathIs(pass.Path, "internal/traceir") {
		pass.ExportPackageFact(&ConsumesTrace{})
	}
	return nil, nil
}
