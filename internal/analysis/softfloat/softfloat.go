// Package softfloat flags native float32/float64 arithmetic on the
// injected compute path of the kernels package.
//
// The paper's FIT model is only valid if every dynamic arithmetic
// operation of a workload flows through fp.Env: that is where operations
// are counted (sizing the campaign), where faults are injected, and where
// reduced-precision formats are emulated bit-exactly. A stray native
// `a*b` inside Kernel.Run — or in any helper Run reaches, in any package
// — computes in the host's binary64, escapes both the op counter and the
// injector, and silently skews sensitive-bit counts and vulnerability
// factors.
//
// The analysis is interprocedural and module-wide. On every package
// except the soft-float implementation itself (package fp, where native
// floats are the point), it computes which declared functions perform or
// transitively reach non-constant float arithmetic (binary + - * /, the
// compound assignment forms, unary minus) and exports a UsesNativeFloat
// fact for each. On the kernels package it walks the call graph rooted
// at every method named Run and reports both local float arithmetic in
// reachable functions and call sites whose callee — resolved in any
// imported package — carries the fact. Native reference implementations
// (forward64, relu64, ...) are untouched as long as nothing on the Run
// path calls them.
//
// A //mixedrelvet:allow softfloat directive on a function declaration is
// a caller-independent claim that the function's float use is off the
// injected datapath (construction-time input generation, tolerance
// decoding): it blocks the fact, so taint does not propagate through the
// function from any caller. Calls resolved through interface values are
// invisible to the call graph and therefore unchecked; the kernels call
// their helpers directly.
package softfloat

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/callgraph"
)

// UsesNativeFloat marks a function that performs, or transitively calls
// into, non-constant native float arithmetic. Exported for every tainted
// function outside package fp; consumed when analyzing packages that
// call across package boundaries from Kernel.Run.
type UsesNativeFloat struct {
	// Why names the first taint source found: `native float "*"` for
	// local arithmetic, `calls pkg.F` for transitive taint.
	Why string
}

func (*UsesNativeFloat) AFact() {}

func (f *UsesNativeFloat) String() string { return "usesNativeFloat(" + f.Why + ")" }

// Analyzer is the softfloat invariant checker.
var Analyzer = &analysis.Analyzer{
	Name:     "softfloat",
	Doc:      "flag native float arithmetic reachable from Kernel.Run in any package; the injected compute path must go through fp.Env",
	Requires: []*analysis.Analyzer{callgraph.Analyzer},
	Run:      run,
}

// floatOp is one native float operation in a function body.
type floatOp struct {
	pos token.Pos
	op  token.Token
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "fp" {
		// The soft-float implementation computes with native floats by
		// design; it is the trusted boundary taint stops at.
		return nil, nil
	}
	g := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	localOps := make(map[*types.Func][]floatOp)
	for _, d := range g.List {
		localOps[d.Fn] = collectOps(pass, d.Decl.Body)
	}

	// Taint to a fixed point: a function is tainted if it has local float
	// arithmetic or calls a tainted function (same package, recursively,
	// or any imported package via its exported fact). An allow directive
	// on the declaration blocks the taint — consulted only when the
	// function would otherwise be tainted, so a directive on a clean
	// function stays unused and is reported by the driver.
	tainted := make(map[*types.Func]string)
	blocked := make(map[*types.Func]bool)
	imported := make(map[*types.Func]string) // memoized cross-package facts; "" = none
	crossWhy := func(fn *types.Func) string {
		if why, ok := imported[fn]; ok {
			return why
		}
		var fact UsesNativeFloat
		why := ""
		if pass.ImportObjectFact(fn, &fact) {
			why = fact.Why
		}
		imported[fn] = why
		return why
	}
	taintDecl := func(d *callgraph.Decl, why string) bool {
		if pass.Allowed(d.File, d.Decl) {
			blocked[d.Fn] = true
			return false
		}
		tainted[d.Fn] = why
		return true
	}
	for _, d := range g.List {
		if ops := localOps[d.Fn]; len(ops) > 0 {
			taintDecl(d, fmt.Sprintf("native float %q", ops[0].op))
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range g.List {
			if _, done := tainted[d.Fn]; done || blocked[d.Fn] {
				continue
			}
			for _, e := range d.Edges {
				why := ""
				if _, ok := tainted[e.Callee]; ok {
					why = "calls " + analysis.FuncShortName(e.Callee)
				} else if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg {
					if w := crossWhy(e.Callee); w != "" {
						why = "calls " + e.Callee.Pkg().Name() + "." + analysis.FuncShortName(e.Callee)
					}
				}
				if why != "" {
					if taintDecl(d, why) {
						changed = true
					}
					break
				}
			}
		}
	}

	for _, d := range g.List {
		if why, ok := tainted[d.Fn]; ok {
			pass.ExportObjectFact(d.Fn, &UsesNativeFloat{Why: why})
		}
	}

	// Enforcement is specific to the workload package: everything else
	// either feeds it (and is covered by the facts above) or works on
	// decoded outputs where native arithmetic is the point.
	if pass.Pkg.Name() != "kernels" {
		return nil, nil
	}

	// Roots: every method named Run, in source order for deterministic
	// attribution when helpers are shared between kernels.
	var roots []*callgraph.Decl
	for _, d := range g.List {
		if d.Fn.Name() == "Run" && d.Decl.Recv != nil {
			roots = append(roots, d)
		}
	}

	reachedFrom := make(map[*types.Func]*types.Func)
	var order []*types.Func
	for _, root := range roots {
		stack := []*types.Func{root.Fn}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, seen := reachedFrom[fn]; seen {
				continue
			}
			d, declared := g.Decls[fn]
			if !declared || pass.Allowed(d.File, d.Decl) {
				continue
			}
			reachedFrom[fn] = root.Fn
			order = append(order, fn)
			for _, e := range d.Edges {
				if _, local := g.Decls[e.Callee]; local {
					stack = append(stack, e.Callee)
				}
			}
		}
	}

	for _, fn := range order {
		root := reachedFrom[fn]
		d := g.Decls[fn]
		for _, op := range localOps[fn] {
			report(pass, op.pos, op.op, fn, root)
		}
		for _, e := range d.Edges {
			if _, local := g.Decls[e.Callee]; local || e.Callee.Pkg() == nil || e.Callee.Pkg() == pass.Pkg {
				continue
			}
			why := crossWhy(e.Callee)
			if why == "" {
				continue
			}
			callee := e.Callee.Pkg().Name() + "." + analysis.FuncShortName(e.Callee)
			if fn == root {
				pass.Reportf(e.Site.Pos(), "call to %s uses native float arithmetic (%s) in %s; the injected compute path must go through fp.Env",
					callee, why, analysis.FuncShortName(root))
			} else {
				pass.Reportf(e.Site.Pos(), "call to %s uses native float arithmetic (%s) in %s, reachable from %s; the injected compute path must go through fp.Env",
					callee, why, analysis.FuncShortName(fn), analysis.FuncShortName(root))
			}
		}
	}
	return nil, nil
}

// collectOps gathers the non-constant native float operations in a
// function body, in source order.
func collectOps(pass *analysis.Pass, body *ast.BlockStmt) []floatOp {
	var ops []floatOp
	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if !arithOp(e.Op) || isConst(pass, e) {
				return true
			}
			if isFloat(pass.TypesInfo.Types[e.X].Type) || isFloat(pass.TypesInfo.Types[e.Y].Type) {
				ops = append(ops, floatOp{e.OpPos, e.Op})
			}
		case *ast.UnaryExpr:
			if e.Op == token.SUB && !isConst(pass, e) && isFloat(pass.TypesInfo.Types[e.X].Type) {
				ops = append(ops, floatOp{e.OpPos, e.Op})
			}
		case *ast.AssignStmt:
			if op, ok := arithAssign(e.Tok); ok && len(e.Lhs) == 1 && isFloat(pass.TypesInfo.Types[e.Lhs[0]].Type) {
				ops = append(ops, floatOp{e.TokPos, op})
			}
		}
		return true
	})
	return ops
}

func report(pass *analysis.Pass, pos token.Pos, op token.Token, fn, root *types.Func) {
	if fn == root {
		pass.Reportf(pos, "native float arithmetic %q in %s; the injected compute path must go through fp.Env",
			op.String(), analysis.FuncShortName(root))
		return
	}
	pass.Reportf(pos, "native float arithmetic %q in %s, reachable from %s; the injected compute path must go through fp.Env",
		op.String(), analysis.FuncShortName(fn), analysis.FuncShortName(root))
}

func arithOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
		return true
	}
	return false
}

func arithAssign(tok token.Token) (token.Token, bool) {
	switch tok {
	case token.ADD_ASSIGN:
		return token.ADD, true
	case token.SUB_ASSIGN:
		return token.SUB, true
	case token.MUL_ASSIGN:
		return token.MUL, true
	case token.QUO_ASSIGN:
		return token.QUO, true
	}
	return 0, false
}

func isConst(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
