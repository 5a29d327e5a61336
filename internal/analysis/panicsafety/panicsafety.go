// Package panicsafety forbids recover() outside internal/exec.
//
// The behavioral DUE model aborts a faulty execution by panicking from
// inside the injecting fp.Env (emulated segfaults, FP traps, watchdog
// kills) and relies on exactly one recovery point — exec.Guard — to
// turn the panic into a classified outcome or an aborted-sample
// diagnostic. A recover() anywhere else in the simulator would swallow
// the abort mid-flight: the kernel would return a half-computed output
// that the campaign then scores as Masked or SDC, silently corrupting
// the SDC/DUE split the experiments exist to measure.
//
// Test files are exempt: tests legitimately recover to assert that a
// panic happened (and the harness itself recovers around test bodies).
package panicsafety

import (
	"go/ast"
	"go/types"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// Analyzer is the panicsafety invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "panicsafety",
	Doc:      "forbid recover() outside internal/exec; emulated crash/hang aborts must reach exec.Guard for DUE classification",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Path == "internal/exec" || strings.HasSuffix(pass.Path, "/internal/exec") {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		call := n.(*ast.CallExpr)
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "recover" {
			return true
		}
		// Only the builtin counts; a local function or method named
		// "recover" cannot swallow a panic.
		if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok {
			return true
		}
		for _, anc := range stack {
			if pass.Allowed(file, anc) {
				return true
			}
		}
		pass.Reportf(call.Lparen, "recover() outside internal/exec swallows emulated crash/hang aborts before exec.Guard can classify them as DUEs")
		return true
	})
	return nil, nil
}
