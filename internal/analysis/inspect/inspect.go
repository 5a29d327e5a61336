// Package inspect provides a shared per-package AST traversal artifact.
//
// Walking every file's AST is the dominant cost of most analyzers in the
// suite, and before this artifact existed each analyzer repeated it.
// inspect.Analyzer performs one ast.Inspect pass per package, recording
// the traversal as a flat event list; analyzers that Require it replay
// the list (filtered by node type) instead of re-walking, and can
// recover the enclosing-node stack of any event without keeping one.
package inspect

import (
	"go/ast"
	"reflect"

	"mixedrel/internal/analysis"
)

// Analyzer builds the package's Inspector. Analyzers that traverse ASTs
// should list it in Requires and obtain the result with
//
//	ins := pass.ResultOf[inspect.Analyzer].(*inspect.Inspector)
var Analyzer = &analysis.Analyzer{
	Name: "inspect",
	Doc:  "build a shared AST traversal index for other analyzers",
	Run: func(pass *analysis.Pass) (interface{}, error) {
		return New(pass.Files), nil
	},
}

// event is one step of the recorded traversal. Push events carry the
// index of their matching pop, so a replay can skip a subtree in O(1).
type event struct {
	node  ast.Node
	push  bool
	match int // for push events: index of the matching pop
	file  *ast.File
}

// Inspector replays a single recorded traversal of a package's files.
type Inspector struct {
	events []event
}

// New records a traversal of the files. The driver invokes it once per
// package via Analyzer; tests may call it directly.
func New(files []*ast.File) *Inspector {
	in := &Inspector{}
	for _, f := range files {
		file := f
		var stack []int
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				in.events[top].match = len(in.events)
				in.events = append(in.events, event{node: in.events[top].node, file: file})
				return true
			}
			stack = append(stack, len(in.events))
			in.events = append(in.events, event{node: n, push: true, file: file})
			return true
		})
	}
	return in
}

// typeFilter returns the set of dynamic node types to report; an empty
// filter reports every node.
func typeFilter(types []ast.Node) map[reflect.Type]bool {
	if len(types) == 0 {
		return nil
	}
	m := make(map[reflect.Type]bool, len(types))
	for _, t := range types {
		m[reflect.TypeOf(t)] = true
	}
	return m
}

// Preorder calls f for every node whose type matches one of types (all
// nodes if types is empty), in depth-first source order, also passing
// the node's enclosing file.
func (in *Inspector) Preorder(types []ast.Node, f func(n ast.Node, file *ast.File)) {
	filter := typeFilter(types)
	for _, ev := range in.events {
		if !ev.push {
			continue
		}
		if filter == nil || filter[reflect.TypeOf(ev.node)] {
			f(ev.node, ev.file)
		}
	}
}

// WithStack is Preorder but also passes the stack of enclosing nodes,
// outermost (the *ast.File) first and the node itself last. The callback
// returns whether to descend into the node's subtree. The stack slice is
// reused between calls; callers must copy it to retain it.
func (in *Inspector) WithStack(types []ast.Node, f func(n ast.Node, file *ast.File, stack []ast.Node) bool) {
	filter := typeFilter(types)
	var stack []ast.Node
	for i := 0; i < len(in.events); i++ {
		ev := in.events[i]
		if !ev.push {
			stack = stack[:len(stack)-1]
			continue
		}
		stack = append(stack, ev.node)
		if filter == nil || filter[reflect.TypeOf(ev.node)] {
			if !f(ev.node, ev.file, stack) {
				stack = stack[:len(stack)-1]
				i = ev.match // jump to the matching pop's successor
			}
		}
	}
}
