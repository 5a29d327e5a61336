// Package telemetry proves the instrumentation layer is observe-only.
//
// internal/telemetry is deliberately exempt from the determinism rules:
// it may read wall clocks and emit events in arrival order, because its
// output never feeds a campaign result. This analyzer is the proof of
// that "never". Every function that touches the instrumentation layer —
// calls into internal/telemetry directly, or through any chain of
// calls — carries a UsesTelemetry fact, and fact-carrying calls are
// reported wherever instrumentation values could flow back into the
// deterministic core:
//
//   - on a kernel's Run path (package kernels): fault classification
//     compares against a golden run, so anything a Run method reaches
//     must be a function of the seed alone;
//   - anywhere in the report package: rendered artifacts are diffed
//     byte-for-byte between runs;
//   - inside the arguments of (*exec.Journal).Record: journaled state
//     must replay identically, so no telemetry-derived value may be
//     checkpointed. This check is value-sensitive: a function that
//     merely increments counters while computing a seed-pure result may
//     be journaled (the engine instruments itself everywhere), but a
//     function whose result may carry telemetry data — it returns a
//     value and reaches a value-returning telemetry read like Clock or
//     Load — may not;
//   - anywhere reachable from a //mixedrelvet:hotpath root: hot loops
//     accumulate plain, unsynchronized counters and flush them once per
//     sample outside the loop — even an atomic add per operation would
//     perturb the measurement the campaign is making.
//
// Importing internal/telemetry at all is reported in the kernels and
// report packages; elsewhere instrumentation is legal and merely earns
// the caller a fact so its own callers stay checkable. Like the
// determinism facts, an //mixedrelvet:allow telemetry directive exempts
// one call site without blocking the fact: an exemption is a claim
// about one context, not about every caller. The instrumentation
// package itself is skipped — it is the source, not a consumer. Test
// files are exempt.
package telemetry

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"mixedrel/internal/analysis"
	"mixedrel/internal/analysis/callgraph"
	"mixedrel/internal/analysis/inspect"
)

// UsesTelemetry marks a function that reads or writes the
// instrumentation layer, directly or transitively.
type UsesTelemetry struct {
	// Why names the first use found: "calls telemetry.F" for a direct
	// call, or "calls pkg.F" for transitive taint.
	Why string
	// Carries reports that the function's result may hold
	// telemetry-derived data: it returns a value and reaches a
	// value-returning telemetry read through calls that return values.
	// Only carriers are banned from journaled state.
	Carries bool
}

func (*UsesTelemetry) AFact() {}

func (f *UsesTelemetry) String() string {
	if f.Carries {
		return "carriesTelemetry(" + f.Why + ")"
	}
	return "usesTelemetry(" + f.Why + ")"
}

// Analyzer is the telemetry observe-only boundary checker.
var Analyzer = &analysis.Analyzer{
	Name:     "telemetry",
	Doc:      "prove telemetry is observe-only: instrumentation never reaches kernel Run paths, the report package, journaled state, or hot paths",
	Requires: []*analysis.Analyzer{inspect.Analyzer, callgraph.Analyzer},
	Run:      run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pathIs(pass.Path, "internal/telemetry") {
		return nil, nil // the instrumentation layer is the source, not a consumer
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
	g := pass.ResultOf[callgraph.Analyzer].(*callgraph.Graph)

	// The rendering and kernel packages may not even import the layer:
	// nothing they could do with it is legal.
	if name := pass.Pkg.Name(); name == "kernels" || name == "report" {
		for _, file := range pass.Files {
			if pass.InTestFile(file.Pos()) {
				continue
			}
			for _, spec := range file.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil || !pathIs(path, "internal/telemetry") {
					continue
				}
				if !pass.Allowed(file, spec) {
					pass.Reportf(spec.Pos(), "import of %s in package %s; telemetry is observe-only and must not reach deterministic results", path, name)
				}
			}
		}
	}

	// Interprocedural taint: seed with direct calls into the layer,
	// propagate through call edges to a fixed point. Allow directives do
	// not block the fact — an exemption is a claim about one context —
	// so exempted instrumentation still taints its callers.
	tainted := make(map[*types.Func]string)
	carries := make(map[*types.Func]bool)
	imported := make(map[*types.Func]*UsesTelemetry)
	crossFact := func(fn *types.Func) *UsesTelemetry {
		if fact, ok := imported[fn]; ok {
			return fact
		}
		var fact UsesTelemetry
		var out *UsesTelemetry
		if pass.ImportObjectFact(fn, &fact) {
			out = &fact
		}
		imported[fn] = out
		return out
	}
	crossWhy := func(fn *types.Func) string {
		if fact := crossFact(fn); fact != nil {
			return fact.Why
		}
		return ""
	}
	for _, d := range g.List {
		for _, e := range d.Edges {
			if why := directSource(e.Callee); why != "" {
				if _, done := tainted[d.Fn]; !done {
					tainted[d.Fn] = why
				}
				if hasResults(d.Fn) && directReader(e.Callee) {
					carries[d.Fn] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range g.List {
			if _, done := tainted[d.Fn]; !done {
				for _, e := range d.Edges {
					why := ""
					if _, ok := tainted[e.Callee]; ok {
						why = "calls " + analysis.FuncShortName(e.Callee)
					} else if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg && directSource(e.Callee) == "" {
						if crossWhy(e.Callee) != "" {
							why = "calls " + e.Callee.Pkg().Name() + "." + analysis.FuncShortName(e.Callee)
						}
					}
					if why != "" {
						tainted[d.Fn] = why
						changed = true
						break
					}
				}
			}
			// Carrier taint flows only through value-returning calls: a
			// result can hold telemetry data only if some callee handed
			// a value back.
			if !carries[d.Fn] && hasResults(d.Fn) {
				for _, e := range d.Edges {
					if !hasResults(e.Callee) {
						continue
					}
					carrier := carries[e.Callee]
					if !carrier {
						if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg {
							if fact := crossFact(e.Callee); fact != nil && fact.Carries {
								carrier = true
							}
						}
					}
					if carrier {
						carries[d.Fn] = true
						changed = true
						break
					}
				}
			}
		}
	}
	for _, d := range g.List {
		if why, ok := tainted[d.Fn]; ok {
			pass.ExportObjectFact(d.Fn, &UsesTelemetry{Why: why, Carries: carries[d.Fn]})
		}
	}

	// edgeWhy classifies one call edge: "" means clean, otherwise the
	// parenthesized explanation ("" explanation means a direct call,
	// which explains itself).
	edgeWhy := func(e callgraph.Edge) (string, bool) {
		if directSource(e.Callee) != "" {
			return "", true
		}
		if why, ok := tainted[e.Callee]; ok {
			return why, true
		}
		if _, local := g.Decls[e.Callee]; !local && e.Callee.Pkg() != nil && e.Callee.Pkg() != pass.Pkg {
			if why := crossWhy(e.Callee); why != "" {
				return why, true
			}
		}
		return "", false
	}
	calleeName := func(fn *types.Func) string {
		name := analysis.FuncShortName(fn)
		if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
			name = fn.Pkg().Name() + "." + name
		}
		return name
	}
	instr := func(e callgraph.Edge, why string) string {
		s := "call to " + calleeName(e.Callee) + " is instrumentation"
		if why != "" {
			s += " (" + why + ")"
		}
		return s
	}

	// Enforcement 1: a kernel's Run path must never touch the layer.
	if pass.Pkg.Name() == "kernels" {
		seen := make(map[*types.Func]bool)
		for _, rd := range g.List {
			if rd.Fn.Name() != "Run" || rd.Decl.Recv == nil {
				continue
			}
			stack := []*types.Func{rd.Fn}
			for len(stack) > 0 {
				fn := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if seen[fn] {
					continue
				}
				seen[fn] = true
				d, ok := g.Decls[fn]
				if !ok {
					continue
				}
				for _, e := range d.Edges {
					if why, bad := edgeWhy(e); bad && !pass.Allowed(d.File, e.Site) {
						pass.Reportf(e.Site.Pos(), "%s on the Run path of %s; telemetry is observe-only and results must be a function of the seed alone",
							instr(e, why), analysis.FuncShortName(rd.Fn))
					}
					if _, local := g.Decls[e.Callee]; local {
						stack = append(stack, e.Callee)
					}
				}
			}
		}
	}

	// Enforcement 2: the report package renders byte-diffed artifacts —
	// no decl in it may touch the layer.
	if pass.Pkg.Name() == "report" {
		for _, d := range g.List {
			for _, e := range d.Edges {
				if why, bad := edgeWhy(e); bad && !pass.Allowed(d.File, e.Site) {
					pass.Reportf(e.Site.Pos(), "%s in the report package; rendered artifacts must not depend on telemetry", instr(e, why))
				}
			}
		}
	}

	// Enforcement 3: hot paths stay instrumentation-free. Hot loops
	// accumulate plain counters and flush them outside the loop; even an
	// exempted atomic add per operation would distort what the campaign
	// measures.
	enforceHotPaths(pass, g, edgeWhy, instr)

	// Enforcement 4: nothing telemetry-derived may be journaled. The
	// check is at the value level: any call inside an argument of
	// (*exec.Journal).Record that resolves to the layer or to a
	// fact-carrying function is reported.
	ins.WithStack([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node, file *ast.File, stack []ast.Node) bool {
		if pass.InTestFile(n.Pos()) {
			return false
		}
		call := n.(*ast.CallExpr)
		fn := analysis.CalleeFunc(pass.TypesInfo, call)
		if fn == nil || !journalRecord(fn) {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				inner, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				cf := analysis.CalleeFunc(pass.TypesInfo, inner)
				if cf == nil {
					return true
				}
				// Only value carriers matter here: the engine may
				// instrument itself while computing a seed-pure record,
				// but no telemetry read may flow into the journal.
				why, bad := "", false
				if directReader(cf) {
					bad = true
				} else if w, ok := tainted[cf]; ok && carries[cf] {
					why, bad = w, true
				} else if _, local := g.Decls[cf]; !local && cf.Pkg() != nil && cf.Pkg() != pass.Pkg {
					if fact := crossFact(cf); fact != nil && fact.Carries {
						why, bad = fact.Why, true
					}
				}
				if bad && !allowedOnStack(pass, file, stack) {
					name := calleeName(cf)
					if why != "" {
						name += " (" + why + ")"
					}
					pass.Reportf(inner.Pos(), "telemetry-derived value %s in an argument of (*Journal).Record; journaled state must replay from the seed alone", name)
				}
				return true
			})
		}
		return true
	})

	return nil, nil
}

// enforceHotPaths walks the local closure of every //mixedrelvet:hotpath
// root and reports any edge that touches the instrumentation layer.
func enforceHotPaths(pass *analysis.Pass, g *callgraph.Graph, edgeWhy func(callgraph.Edge) (string, bool), instr func(callgraph.Edge, string) string) {
	reachedFrom := make(map[*types.Func]*types.Func)
	var order []*types.Func
	for _, root := range g.List {
		if !pass.HotPath(root.File, root.Decl) {
			continue
		}
		stack := []*types.Func{root.Fn}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, seen := reachedFrom[fn]; seen {
				continue
			}
			d, ok := g.Decls[fn]
			if !ok {
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
		for _, e := range d.Edges {
			why, bad := edgeWhy(e)
			if !bad || pass.Allowed(d.File, e.Site) {
				continue
			}
			if fn == root {
				pass.Reportf(e.Site.Pos(), "%s in hot path %s; hot paths accumulate plain counters and flush them outside the loop",
					instr(e, why), analysis.FuncShortName(root))
			} else {
				pass.Reportf(e.Site.Pos(), "%s in %s, reachable from hot path %s; hot paths accumulate plain counters and flush them outside the loop",
					instr(e, why), analysis.FuncShortName(fn), analysis.FuncShortName(root))
			}
		}
	}
}

// directSource classifies callees that belong to the instrumentation
// layer itself.
func directSource(fn *types.Func) string {
	if p := fn.Pkg(); p != nil && pathIs(p.Path(), "internal/telemetry") {
		return "calls telemetry." + analysis.FuncShortName(fn)
	}
	return ""
}

// directReader reports whether fn is a telemetry function that hands a
// value back — the only kind whose result can leak instrumentation data
// into a caller (Clock, Load, Snapshot; Inc and Emit return nothing).
func directReader(fn *types.Func) bool {
	return directSource(fn) != "" && hasResults(fn)
}

func hasResults(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Results().Len() > 0
}

// journalRecord reports whether fn is the checkpoint journal's Record
// method.
func journalRecord(fn *types.Func) bool {
	if fn.Name() != "Record" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	n := analysis.Named(sig.Recv().Type())
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == "Journal" && n.Obj().Pkg().Name() == "exec"
}

func pathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

func allowedOnStack(pass *analysis.Pass, file *ast.File, stack []ast.Node) bool {
	for _, n := range stack {
		if pass.Allowed(file, n) {
			return true
		}
	}
	return false
}
