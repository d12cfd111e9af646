package refleak

import (
	"go/ast"
	"go/types"
	"sort"
)

// The call graph behind the transitively-releases summary is deliberately
// modest: edges exist only for direct calls whose callee resolves to a
// named function or method through go/types (no points-to analysis, no
// dynamic dispatch through interfaces, no function values), and only
// callees declared in the same package get nodes. A cross-package leak
// surfaces when the importing package's own wrapper is analyzed in its own
// package run.
//
// The graph is deterministic: nodes and callee lists are ordered by
// declaration and call-site source position, so the fixpoint iterates in a
// stable order and diagnostics stay diff-stable.

// callNode is one function or method declared in the package.
type callNode struct {
	fn   *types.Func
	decl *ast.FuncDecl // with body; body-less decls get no node
	// callees are the same-package functions this one calls directly, in
	// call-site order, deduplicated.
	callees []*callNode
}

// callGraph is the package's call graph, nodes in declaration order.
type callGraph struct {
	nodes []*callNode
}

// newCallGraph builds the graph for one type-checked package.
func newCallGraph(info *types.Info, files []*ast.File) *callGraph {
	g := &callGraph{}
	byObj := make(map[*types.Func]*callNode)
	// First pass: one node per function declaration with a body.
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &callNode{fn: obj, decl: fd}
			g.nodes = append(g.nodes, n)
			byObj[obj] = n
		}
	}
	sort.Slice(g.nodes, func(i, j int) bool {
		return g.nodes[i].decl.Pos() < g.nodes[j].decl.Pos()
	})
	// Second pass: resolve direct calls. Calls inside function literals
	// count as calls of the enclosing declaration — a helper invoked from
	// a closure still runs on some path of the declaring function.
	for _, n := range g.nodes {
		seen := make(map[*callNode]bool)
		ast.Inspect(n.decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if cn := byObj[staticCallee(info, call)]; cn != nil && !seen[cn] {
				seen[cn] = true
				n.callees = append(n.callees, cn)
			}
			return true
		})
	}
	return g
}

// staticCallee resolves the *types.Func a call invokes, when that is
// statically evident: a plain identifier (`helper(...)`), a selector on a
// package or value (`pkg.Fn(...)`, `recv.Method(...)`), or a method
// expression. Returns nil for calls through function-typed values,
// builtins, and type conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		// Method calls and qualified identifiers both land in
		// Uses[fun.Sel]; method values/expressions resolve identically
		// for our purposes.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// fixpoint iterates visit over the graph's nodes until no visit call
// reports a change, bounding iterations by the node count (summary
// propagation along call edges converges in ≤ depth rounds; the bound
// guards recursive cycles). Nodes are visited in declaration order each
// round so results are deterministic.
func (g *callGraph) fixpoint(visit func(n *callNode) (changed bool)) {
	for round := 0; round <= len(g.nodes); round++ {
		changed := false
		for _, n := range g.nodes {
			if visit(n) {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}
