// Package lockorder flags acquisitions of pooled locks that could nest.
//
// A "pooled lock" is a sync.Mutex/RWMutex field of a struct type that is
// pooled — used as the element type of a slice — in the package under
// analysis: today core.Platform (the benchmark harness's hosts). Siblings
// of one pool have no lock order between them, so two goroutines that each
// hold one and wait for the other deadlock. The rule is that a goroutine never holds
// two pooled locks at once:
//
//   - Singleton mutexes (one per object graph, like Domain.mu or the
//     machine memory pool's) are out of scope: only pooled locks can
//     deadlock on sibling ordering.
//   - Within a function, acquiring a pooled lock while another may still
//     be held is reported, as is acquiring one inside a loop body that does
//     not release it in the same iteration (the next iteration would nest).
//   - Individual sites can be waived with //nephele:lockorder-ok.
package lockorder

import (
	"go/ast"
	"go/types"

	"nephele/internal/analysis"
)

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockorder",
	Doc:      "flags pooled-lock acquisitions that could nest (a second pooled mutex taken, or one taken in a loop, while another is held)",
	Suppress: "nephele:lockorder-ok",
	Run:      run,
}

func run(pass *analysis.Pass) error {
	pooled := pooledTypes(pass.Pkg)
	if len(pooled) == 0 {
		return nil
	}
	c := &checker{pass: pass, pooled: pooled}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				c.walkStmts(fn.Body.List, state{})
			}
		}
	}
	return nil
}

// pooledTypes returns the named struct types that (a) contain a
// sync.Mutex/RWMutex field and (b) appear as the element type of a slice
// in a package-level type or variable — i.e. the lock pools.
func pooledTypes(pkg *types.Package) map[*types.Named]bool {
	pooled := make(map[*types.Named]bool)
	var visitSlice func(t types.Type)
	visitSlice = func(t types.Type) {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return
		}
		elem := sl.Elem()
		if p, ok := elem.(*types.Pointer); ok {
			elem = p.Elem()
		}
		if named, ok := elem.(*types.Named); ok && hasMutexField(named) {
			pooled[named] = true
		}
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.TypeName:
			if st, ok := obj.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					visitSlice(st.Field(i).Type())
				}
			}
		case *types.Var:
			visitSlice(obj.Type())
		}
	}
	return pooled
}

func hasMutexField(named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isMutex(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isMutex(t types.Type) bool {
	s := types.TypeString(t, nil)
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// state is the abstract per-path lock count.
type state struct {
	held       int
	terminated bool
}

type checker struct {
	pass   *analysis.Pass
	pooled map[*types.Named]bool
}

// pooledLockCall classifies call as Lock/RLock (+1) or Unlock/RUnlock (-1)
// on a pooled mutex; 0 for anything else.
func (c *checker) pooledLockCall(call *ast.CallExpr) int {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	var delta int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		delta = 1
	case "Unlock", "RUnlock":
		delta = -1
	default:
		return 0
	}
	// sel.X is the mutex expression; it must itself be a selection of a
	// mutex field from a pooled struct.
	mutexSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	tv, ok := c.pass.TypesInfo.Types[mutexSel]
	if !ok || !isMutex(tv.Type) {
		return 0
	}
	owner, ok := c.pass.TypesInfo.Types[mutexSel.X]
	if !ok {
		return 0
	}
	t := owner.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || !c.pooled[named] {
		return 0
	}
	return delta
}

// walkStmts interprets a statement list, reporting lock-order hazards, and
// returns the exit state.
func (c *checker) walkStmts(list []ast.Stmt, st state) state {
	for _, s := range list {
		st = c.walkStmt(s, st)
		if st.terminated {
			break
		}
	}
	return st
}

func (c *checker) walkStmt(s ast.Stmt, st state) state {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.walkStmts(s.List, st)
	case *ast.ReturnStmt:
		c.scanExpr(s, &st)
		st.terminated = true
		return st
	case *ast.BranchStmt:
		// break/continue/goto end the linear path conservatively.
		st.terminated = true
		return st
	case *ast.DeferStmt:
		// Deferred unlocks run at return; they do not release the lock
		// for the remainder of the body. Deferred funcs with their own
		// locking are checked as fresh scopes.
		c.walkFuncLits(s.Call, state{})
		return st
	case *ast.GoStmt:
		c.walkFuncLits(s.Call, state{})
		return st
	case *ast.IfStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		c.scanExpr(s.Cond, &st)
		thenSt := c.walkStmts(s.Body.List, st)
		elseSt := st
		if s.Else != nil {
			elseSt = c.walkStmt(s.Else, st)
		}
		return merge(thenSt, elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, &st)
		}
		c.walkLoopBody(s.Body, st)
		return st
	case *ast.RangeStmt:
		c.scanExpr(s.X, &st)
		c.walkLoopBody(s.Body, st)
		return st
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.walkClauses(s, st)
	case *ast.LabeledStmt:
		return c.walkStmt(s.Stmt, st)
	default:
		c.scanExpr(s, &st)
		return st
	}
}

// walkLoopBody checks a loop body: a net-positive lock delta means the
// next iteration would acquire a second pooled lock while one is held.
func (c *checker) walkLoopBody(body *ast.BlockStmt, st state) {
	exit := c.walkStmts(body.List, st)
	if !exit.terminated && exit.held > st.held {
		pos := body.Pos()
		ast.Inspect(body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && c.pooledLockCall(call) > 0 {
				pos = call.Pos()
				return false
			}
			return true
		})
		c.pass.Reportf(pos, "pooled lock acquired in a loop without an unlock in the same iteration; the next iteration would hold two pooled locks")
	}
}

// walkClauses handles switch/select by merging every clause's exit state.
func (c *checker) walkClauses(s ast.Stmt, st state) state {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.scanExpr(s.Tag, &st)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		body = s.Body
	case *ast.SelectStmt:
		body = s.Body
	}
	out := state{terminated: true}
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			stmts = cl.Body
		}
		out = merge(out, c.walkStmts(stmts, st))
	}
	if !hasDefault {
		out = merge(out, st)
	}
	return out
}

// merge joins two branch exit states: the conservative (max-held)
// non-terminated state wins.
func merge(a, b state) state {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	if b.held > a.held {
		return b
	}
	return a
}

// scanExpr processes every call in a non-branching statement or expression
// in source order, updating the held count and reporting nested
// acquisitions. Function literals are checked as fresh scopes.
func (c *checker) scanExpr(n ast.Node, st *state) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.walkStmts(n.Body.List, state{})
			return false
		case *ast.CallExpr:
			switch c.pooledLockCall(n) {
			case 1:
				if st.held > 0 {
					c.pass.Reportf(n.Pos(), "pooled lock acquired while another pooled lock is held; siblings of one pool have no lock order")
				}
				st.held++
			case -1:
				if st.held > 0 {
					st.held--
				}
			}
		}
		return true
	})
}

// walkFuncLits checks any function literals inside call as fresh scopes.
func (c *checker) walkFuncLits(call *ast.CallExpr, st state) {
	ast.Inspect(call, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.walkStmts(lit.Body.List, st)
			return false
		}
		return true
	})
}
