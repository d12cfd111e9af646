package refleak

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func typecheck(t *testing.T, src string) (*types.Info, []*ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Defs: make(map[*ast.Ident]types.Object),
		Uses: make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return info, []*ast.File{f}
}

const callSrc = `package p

type T struct{}

func (t *T) Release()       {}
func (t *T) Acquire()       { helper(t) }
func helper(t *T)           { t.Release() }
func top(t *T)              { t.Acquire() }
func viaClosure(t *T)       { f := func() { helper(t) }; f() }
func viaValue(g func())     { g() }
func external()             { _ = len("x") }
`

func nodeNames(ns []*callNode) []string {
	var out []string
	for _, n := range ns {
		out = append(out, n.fn.Name())
	}
	return out
}

func TestDirectEdges(t *testing.T) {
	g := newCallGraph(typecheck(t, callSrc))

	find := func(name string) *callNode {
		t.Helper()
		for _, n := range g.nodes {
			if n.fn.Name() == name {
				return n
			}
		}
		t.Fatalf("no node %q", name)
		return nil
	}

	if got := nodeNames(find("top").callees); len(got) != 1 || got[0] != "Acquire" {
		t.Fatalf("top callees = %v, want [Acquire]", got)
	}
	if got := nodeNames(find("Acquire").callees); len(got) != 1 || got[0] != "helper" {
		t.Fatalf("Acquire callees = %v, want [helper]", got)
	}
	if got := nodeNames(find("helper").callees); len(got) != 1 || got[0] != "Release" {
		t.Fatalf("helper callees = %v, want [Release]", got)
	}
}

func TestClosureCallsAttributeToDeclaringFunc(t *testing.T) {
	g := newCallGraph(typecheck(t, callSrc))
	for _, n := range g.nodes {
		if n.fn.Name() != "viaClosure" {
			continue
		}
		got := nodeNames(n.callees)
		if len(got) != 1 || got[0] != "helper" {
			t.Fatalf("viaClosure callees = %v, want [helper]", got)
		}
		return
	}
	t.Fatal("no viaClosure node")
}

func TestFunctionValueCallHasNoEdge(t *testing.T) {
	g := newCallGraph(typecheck(t, callSrc))
	for _, n := range g.nodes {
		if n.fn.Name() == "viaValue" && len(n.callees) != 0 {
			t.Fatalf("viaValue callees = %v, want none", nodeNames(n.callees))
		}
	}
}

func TestFixpointConverges(t *testing.T) {
	g := newCallGraph(typecheck(t, callSrc))
	// Propagate a "reaches Release" bit backwards along call edges; the
	// fixpoint must mark helper, Acquire, top and viaClosure.
	reaches := make(map[*callNode]bool)
	for _, n := range g.nodes {
		if n.fn.Name() == "Release" {
			reaches[n] = true
		}
	}
	rounds := 0
	g.fixpoint(func(n *callNode) bool {
		rounds++
		if reaches[n] {
			return false
		}
		for _, c := range n.callees {
			if reaches[c] {
				reaches[n] = true
				return true
			}
		}
		return false
	})
	want := map[string]bool{"Release": true, "helper": true, "Acquire": true, "top": true, "viaClosure": true}
	for _, n := range g.nodes {
		if reaches[n] != want[n.fn.Name()] {
			t.Fatalf("reaches[%s] = %v, want %v", n.fn.Name(), reaches[n], want[n.fn.Name()])
		}
	}
	if rounds == 0 {
		t.Fatal("fixpoint never visited")
	}
}
