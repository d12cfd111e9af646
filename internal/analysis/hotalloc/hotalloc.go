// Package hotalloc guards the zero-allocation warm paths. The disabled
// observability contract (DESIGN.md §12, pinned by the 0-allocs sink
// tests) promises that a clone with metrics and tracing off allocates
// nothing in OpCtx plumbing; the machine memory pool makes the same
// promise for its fast paths. Those contracts are enforced today by
// testing.AllocsPerRun, which only sees the exact code path the test
// drives — a new branch that allocates slips through until a benchmark
// regresses.
//
// hotalloc checks the property syntactically: a function whose doc
// comment carries the //nephele:noalloc marker is scanned for
// constructs that always or typically heap-allocate:
//
//   - &T{...} composite literals (escape: the pointer outlives the frame);
//   - slice and map composite literals;
//   - make, new, append;
//   - function literals (closure environments) and go statements;
//   - non-constant string concatenation and string<->[]byte/[]rune
//     conversions;
//   - map writes;
//   - interface boxing: passing, returning or assigning a concrete value
//     where an interface is expected.
//
// Plain struct *value* literals, pointer dereferences and ordinary calls
// are not flagged — the check is a conservative lint, not escape
// analysis. An allocation on a branch the warm path provably never takes
// (an enabled-only metrics branch, say) is waived with
// //nephele:hotalloc-ok and a justification.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nephele/internal/analysis"
)

// Marker is the doc-comment directive opting a function into the check.
const Marker = "nephele:noalloc"

// Analyzer is the warm-path allocation pass.
var Analyzer = &analysis.Analyzer{
	Name:     "hotalloc",
	Suppress: "nephele:hotalloc-ok",
	Run:      run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !marked(fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// marked reports whether the declaration's doc comment carries the
// noalloc directive. CommentGroup.Text strips //-directives, so the raw
// list is scanned.
func marked(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.Contains(c.Text, Marker) {
			return true
		}
	}
	return false
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	sig, _ := pass.TypesInfo.Defs[fd.Name].Type().(*types.Signature)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(), "noalloc: &composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "noalloc: slice literal allocates its backing array")
				case *types.Map:
					pass.Reportf(n.Pos(), "noalloc: map literal allocates")
				}
			}
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "noalloc: function literal allocates its closure environment")
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "noalloc: go statement allocates a goroutine")
		case *ast.BinaryExpr:
			checkConcat(pass, n)
		case *ast.AssignStmt:
			checkAssign(pass, n)
		case *ast.ReturnStmt:
			checkReturn(pass, sig, n)
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "noalloc: make allocates")
			case "new":
				pass.Reportf(call.Pos(), "noalloc: new allocates")
			case "append":
				pass.Reportf(call.Pos(), "noalloc: append may grow the backing array")
			}
			return
		}
	}
	// Conversions: string <-> []byte/[]rune copy their data.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type.Underlying()
		from := pass.TypesInfo.Types[call.Args[0]].Type
		if from != nil && convAllocates(from.Underlying(), to) {
			pass.Reportf(call.Pos(), "noalloc: %s conversion copies its data", types.TypeString(tv.Type, nil))
		}
		return
	}
	// Interface boxing at the call boundary.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding an existing slice does not box
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(pass, param, arg) {
			pass.Reportf(arg.Pos(), "noalloc: passing a concrete value as %s boxes it on the heap", types.TypeString(param, nil))
		}
	}
}

func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func convAllocates(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isByteOrRuneSlice(to)) || (isByteOrRuneSlice(from) && isStr(to))
}

// checkConcat flags non-constant string concatenation.
func checkConcat(pass *analysis.Pass, e *ast.BinaryExpr) {
	if e.Op != token.ADD {
		return
	}
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value != nil { // constant-folded concat is free
		return
	}
	if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		pass.Reportf(e.Pos(), "noalloc: string concatenation allocates")
	}
}

func checkAssign(pass *analysis.Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
			if tv, ok := pass.TypesInfo.Types[idx.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					pass.Reportf(lhs.Pos(), "noalloc: map write may allocate (bucket growth, key/value boxing)")
				}
			}
		}
	}
	// Boxing on assignment: concrete RHS into interface-typed LHS.
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			ltv, ok := pass.TypesInfo.Types[as.Lhs[i]]
			if !ok {
				continue
			}
			if boxes(pass, ltv.Type, as.Rhs[i]) {
				pass.Reportf(as.Rhs[i].Pos(), "noalloc: assigning a concrete value to %s boxes it on the heap", types.TypeString(ltv.Type, nil))
			}
		}
	}
}

func checkReturn(pass *analysis.Pass, sig *types.Signature, ret *ast.ReturnStmt) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		if boxes(pass, sig.Results().At(i).Type(), res) {
			pass.Reportf(res.Pos(), "noalloc: returning a concrete value as %s boxes it on the heap", types.TypeString(sig.Results().At(i).Type(), nil))
		}
	}
}

// boxes reports whether assigning expr to a target of type dst converts a
// concrete value to an interface. Nil literals and values that are already
// interfaces move without allocating; pointers box allocation-free too
// (the itab pair holds the pointer itself), so only non-pointer concrete
// values count.
func boxes(pass *analysis.Pass, dst types.Type, expr ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return false
	}
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer:
		return false
	}
	return true
}
