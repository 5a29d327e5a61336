// Package chaos (the analyzer) keeps the fault-injection layer out of
// production binaries.
//
// internal/chaos implements the exec.FS checkpoint seam with a
// filesystem that deliberately fails: injected write/sync/rename
// errors, short writes, byte budgets that emulate a full disk. That is
// exactly what the soak harness needs and exactly what no campaign
// binary may ever link — a production campaign whose checkpoint I/O
// can be redirected into a fault injector would corrupt the
// crash-tolerance guarantees the journal exists to provide, silently
// and configurably. The seam stays honest only if the set of arming
// packages is closed.
//
// The analyzer allows imports of internal/chaos only from the harness
// that owns it: internal/chaos itself and cmd/mixedrelstress, the soak
// binary. It also catches consumption that needs no import — calling a
// method or reading a field of a chaos value obtained from another
// package — so handing a *chaos.FS across a package boundary does not
// launder the dependency. Every package that touches the layer either
// way exports an ArmsChaos package fact, making the boundary auditable
// from the fact stream. Test files are exempt, as everywhere in the
// suite: unit tests and benchmarks legitimately inject faults and
// measure the disarmed seam.
package chaos

import (
	"go/ast"
	"strconv"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// ArmsChaos marks a package that imports internal/chaos or selects its
// objects through values obtained elsewhere.
type ArmsChaos struct{}

func (*ArmsChaos) AFact() {}

func (*ArmsChaos) String() string { return "armsChaos" }

// Analyzer is the chaos-containment invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "chaos",
	Doc:      "restrict internal/chaos (the fault-injecting exec.FS) to the soak harness; production campaigns must not be able to arm checkpoint fault injection",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// allowedImporters are the package paths (matched on their module-
// relative suffix) that may arm the chaos layer.
var allowedImporters = []string{
	"internal/chaos",
	"cmd/mixedrelstress",
}

func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func run(pass *analysis.Pass) (interface{}, error) {
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	arms := false

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
			if err != nil || !pathIs(path, "internal/chaos") {
				continue
			}
			arms = true
			if !trusted && !pass.Allowed(file, spec) {
				pass.Reportf(spec.Pos(), "import of %s outside the soak harness; the fault-injecting checkpoint FS must stay unreachable from production campaigns", path)
			}
		}
	}

	// Selections on chaos values need no import: a *chaos.FS handed out
	// by another package brings its methods and fields with it.
	ins.WithStack([]ast.Node{(*ast.SelectorExpr)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		sel := n.(*ast.SelectorExpr)
		if pass.InTestFile(sel.Pos()) {
			return true
		}
		if pass.TypesInfo.Selections[sel] == nil {
			return true // qualified identifier; the import check covers it
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil || !pathIs(obj.Pkg().Path(), "internal/chaos") {
			return true
		}
		arms = true
		if trusted {
			return true
		}
		for _, anc := range stack {
			if pass.Allowed(file, anc) {
				return true
			}
		}
		pass.Reportf(sel.Sel.Pos(), "use of internal/chaos.%s through a value obtained from another package; fault injection must stay confined to the soak harness", sel.Sel.Name)
		return true
	})

	if arms || pathIs(pass.Path, "internal/chaos") {
		pass.ExportPackageFact(&ArmsChaos{})
	}
	return nil, nil
}
