// Package batchops flags per-element fp.Env arithmetic loops in the
// kernels package when a batch operation expresses the same sequence.
//
// The batch execution layer (fp.BatchEnv and the package-level
// DotFMA/AddN/MulN/FMAN/AXPY/DotFMABlock/GemmFMA helpers) is only worth
// its correctness obligations if the kernels actually route their inner
// loops through it: a scalar `env.FMA` loop that could have been a
// DotFMA chain silently forgoes the machine fast path and re-introduces
// the per-operation dispatch cost the layer exists to remove. The
// analyzer reports the innermost loop containing a scalar Add, Mul or
// FMA call on an fp.Env value, once per loop.
//
// Some scalar loops are the contract, not an oversight: interleaved
// updates whose dynamic operation order carries fault-index semantics,
// data-dependent sparse operations, reductions that interleave kinds.
// Those carry the escape hatch on the loop (or any enclosing statement):
//
//	//mixedrelvet:allow batchops <why the scalar order is the contract>
package batchops

import (
	"go/ast"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/inspect"
)

// Analyzer is the batchops invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "batchops",
	Doc:      "flag per-element Add/Mul/FMA loops over fp.Env in kernels; use the fp batch helpers or annotate why the scalar order is the contract",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

// batchFor maps a scalar Env method to the package helpers expressing
// the same operation sequence batched. Methods without a batch form
// (Sub, Div, Sqrt, Exp) are never flagged.
var batchFor = map[string]string{
	"Add": "fp.AddN",
	"Mul": "fp.MulN",
	"FMA": "fp.FMAN, fp.AXPY or fp.DotFMA",
}

func run(pass *analysis.Pass) (interface{}, error) {
	// The batch helpers are a kernels-facing contract; other packages
	// (wrappers, the injector) legitimately decompose batches into
	// scalar loops — that decomposition is the fallback semantics.
	if pass.Pkg.Name() != "kernels" {
		return nil, nil
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	// One decision (diagnostic or exemption) per innermost loop.
	decided := make(map[ast.Node]bool)
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		helpers, ok := batchFor[sel.Sel.Name]
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok || !analysis.IsPkgType(tv.Type, "fp", "Env") {
			return true
		}
		loop := innermostLoop(stack[:len(stack)-1])
		if loop == nil || decided[loop] {
			return true
		}
		decided[loop] = true
		for _, anc := range stack {
			if pass.Allowed(file, anc) {
				return true
			}
		}
		pass.Reportf(loop.Pos(), "loop applies scalar env.%s per element; batch it through %s, or annotate //mixedrelvet:allow batchops <reason> if the scalar order is the contract", sel.Sel.Name, helpers)
		return true
	})
	return nil, nil
}

// innermostLoop returns the deepest for/range statement on the stack.
func innermostLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		}
	}
	return nil
}
