// Package pairedops verifies that frame-reference acquisitions are paired
// with a release on every error-return path.
//
// The clone pipeline's failure protocol (DESIGN.md §8) requires that a
// clone which dies part-way leaves the parent exactly as it was: every
// ShareN/AllocN/AddSharerN against the machine pool must be undone by a
// ReleaseN/Free/DropShared (or an unwind helper) before an error return.
// -race and the fault-matrix tests only catch a forgotten rollback when
// the failing schedule actually runs; this analyzer rejects the shape at
// CI time.
//
// For every function containing an acquire call — a method named Alloc,
// AllocN, Share, ShareN, AddSharer, AddSharerN (or the package-private
// allocOne/sharePTEs/addSharerPTEs) on a Memory or Space value — the
// analyzer walks the statement graph and reports any error return reached
// with an acquisition outstanding, unless:
//
//   - a release call (Free, Release(N), DropShared, or the package-private
//     release/releaseOne/releasePTEs unwinds on Memory/Space, or
//     DomainDestroy on anything) occurs on the path first;
//   - the function defers a release (the cloneOne unwind pattern), which
//     covers every return;
//   - the return goes through a local closure that performs the release
//     (the Space.Clone fail() pattern);
//   - the immediately-following `if err != nil` check of an acquire is the
//     acquire's own failure path (nothing was acquired).
//
// Loop bodies are walked to a fixpoint, so an error return in iteration
// i+1 sees the references iteration i acquired. Intentionally unpaired
// sites are waived with //nephele:pairedops-ok plus a justification.
package pairedops

import (
	"go/ast"
	"go/token"
	"go/types"

	"nephele/internal/analysis"
)

// Analyzer is the pairedops pass.
var Analyzer = &analysis.Analyzer{
	Name:     "pairedops",
	Doc:      "verifies Share/Alloc/AddSharer acquisitions are released or rolled back on every error-return path",
	Suppress: "nephele:pairedops-ok",
	Run:      run,
}

var acquireNames = map[string]bool{
	"Alloc": true, "AllocN": true,
	"Share": true, "ShareN": true, "sharePTEs": true,
	"AddSharer": true, "AddSharerN": true, "addSharerPTEs": true,
	"allocOne": true,
}

var releaseNames = map[string]bool{
	"Free": true, "FreeN": true,
	"Release": true, "ReleaseN": true, "release": true, "releaseOne": true, "releasePTEs": true,
	"DropShared": true,
}

// releaseAnyRecv are release-ish calls honored on any receiver: destroying
// the half-built domain releases everything it accumulated.
var releaseAnyRecv = map[string]bool{
	"DomainDestroy": true,
}

// consumeNames transfer ownership of the outstanding reference into a
// durable structure (installing a mapping consumes the sharer reference it
// was acquired for). A failed consume leaves the reference outstanding, so
// consumes get the same own-error-check treatment as acquires.
var consumeNames = map[string]bool{
	"Remap": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// errResult reports whether the function returns an error as its last
	// result (the only functions whose return paths are classified).
	errResult bool
	// named result identifiers (for naked returns).
	namedErr string
	// releaseClosures are local `fail := func(...)` values whose bodies
	// release; calling one counts as a release.
	releaseClosures map[types.Object]bool
	silent          int
	reported        map[token.Pos]bool
}

// state tracks outstanding acquisitions along one path.
type state struct {
	// acq is the position/name of the oldest unreleased acquisition.
	acq        *acquire
	terminated bool
}

type acquire struct {
	pos  token.Pos
	name string
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	c := &checker{
		pass:            pass,
		releaseClosures: make(map[types.Object]bool),
		reported:        make(map[token.Pos]bool),
	}
	ft := fn.Type
	if ft.Results != nil && len(ft.Results.List) > 0 {
		last := ft.Results.List[len(ft.Results.List)-1]
		if tv, ok := pass.TypesInfo.Types[last.Type]; ok && isErrorType(tv.Type) {
			c.errResult = true
			if len(last.Names) > 0 {
				c.namedErr = last.Names[len(last.Names)-1].Name
			}
		}
	}
	if !c.errResult {
		return
	}
	hasAcquire := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isAcquire(call) {
			hasAcquire = true
		}
		return true
	})
	if !hasAcquire {
		return
	}
	// The deferred-unwind pattern covers every return path.
	deferredRelease := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && c.containsRelease(d.Call) {
			deferredRelease = true
		}
		return true
	})
	if deferredRelease {
		return
	}
	// Collect release closures: name := func(...) { ... release ... }.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || !c.containsRelease(lit.Body) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					c.releaseClosures[obj] = true
				} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
					c.releaseClosures[obj] = true
				}
			}
		}
		return true
	})
	c.walkStmts(fn.Body.List, state{})
}

func isErrorType(t types.Type) bool {
	return types.TypeString(t, nil) == "error"
}

// recvTypeName resolves the named type of a method call's receiver.
func (c *checker) recvTypeName(call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return "", "", false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", "", false
	}
	return named.Obj().Name(), sel.Sel.Name, true
}

func (c *checker) isAcquire(call *ast.CallExpr) bool {
	recv, name, ok := c.recvTypeName(call)
	if !ok || !acquireNames[name] {
		return false
	}
	return recv == "Memory" || recv == "Space"
}

func (c *checker) isConsume(call *ast.CallExpr) bool {
	recv, name, ok := c.recvTypeName(call)
	if !ok || !consumeNames[name] {
		return false
	}
	return recv == "Memory" || recv == "Space"
}

func (c *checker) containsConsume(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isConsume(call) {
			found = true
		}
		return !found
	})
	return found
}

func (c *checker) isRelease(call *ast.CallExpr) bool {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.releaseClosures[obj] {
			return true
		}
	}
	recv, name, ok := c.recvTypeName(call)
	if !ok {
		return false
	}
	if releaseAnyRecv[name] {
		return true
	}
	return releaseNames[name] && (recv == "Memory" || recv == "Space")
}

// containsRelease reports whether any call under n is a release.
func (c *checker) containsRelease(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isRelease(call) {
			found = true
		}
		return !found
	})
	return found
}

func (c *checker) containsAcquire(n ast.Node) (*ast.CallExpr, bool) {
	var acq *ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isAcquire(call) {
			acq = call
		}
		return acq == nil
	})
	return acq, acq != nil
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.silent > 0 || c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, format, args...)
}

// errVarsOf collects identifiers of error type assigned by stmt.
func (c *checker) errVarsOf(as *ast.AssignStmt) map[string]bool {
	vars := make(map[string]bool)
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := c.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = c.pass.TypesInfo.Uses[id]
		}
		if obj != nil && isErrorType(obj.Type()) {
			vars[id.Name] = true
		}
	}
	return vars
}

// condMentions reports whether expr references any identifier in vars.
func condMentions(expr ast.Expr, vars map[string]bool) bool {
	if expr == nil || len(vars) == 0 {
		return false
	}
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && vars[id.Name] {
			found = true
		}
		return !found
	})
	return found
}

// pendingEffect is an acquire or consume whose own error check may be the
// next statement; its state change applies only past that check.
type pendingEffect struct {
	isAcquire bool
	acq       *acquire // set when isAcquire
	errVars   map[string]bool
}

// walkStmts interprets a statement list with one-statement lookahead for
// the acquire-then-check-err (and consume-then-check-err) idiom.
func (c *checker) walkStmts(list []ast.Stmt, st state) state {
	var pending *pendingEffect
	commit := func() {
		if pending != nil {
			if pending.isAcquire {
				if st.acq == nil {
					st.acq = pending.acq
				}
			} else {
				st.acq = nil
			}
			pending = nil
		}
	}
	for _, s := range list {
		if st.terminated {
			break
		}
		// An `if err != nil` right after an acquire is the acquire's own
		// failure check: its body runs with nothing acquired.
		if pending != nil {
			if ifs, ok := s.(*ast.IfStmt); ok && ifs.Init == nil && condMentions(ifs.Cond, pending.errVars) {
				thenSt := c.walkStmts(ifs.Body.List, st)
				elseSt := st
				if ifs.Else != nil {
					elseSt = c.walkStmt(ifs.Else, st)
				}
				st = mergeStates(thenSt, elseSt)
				commit()
				continue
			}
		}
		commit()
		st, pending = c.walkStmt2(s, st)
	}
	commit()
	return st
}

// walkStmt wraps walkStmt2 committing any pending effect immediately.
func (c *checker) walkStmt(s ast.Stmt, st state) state {
	st, pending := c.walkStmt2(s, st)
	if pending != nil {
		if pending.isAcquire {
			if st.acq == nil {
				st.acq = pending.acq
			}
		} else {
			st.acq = nil
		}
	}
	return st
}

// walkStmt2 interprets one statement; a returned non-nil effect is
// pending its own error check.
func (c *checker) walkStmt2(s ast.Stmt, st state) (state, *pendingEffect) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return c.walkStmts(s.List, st), nil
	case *ast.ReturnStmt:
		// A release reached through the return expression itself
		// (`return fail(err)`) clears the debt.
		if c.containsRelease(s) {
			st.acq = nil
		}
		if st.acq != nil && c.isErrorReturn(s) {
			c.report(s.Pos(), "error return with unreleased %s (line %d): release or roll back before returning, or defer an unwind",
				st.acq.name, c.pass.Fset.Position(st.acq.pos).Line)
		}
		st.terminated = true
		return st, nil
	case *ast.BranchStmt:
		st.terminated = true
		return st, nil
	case *ast.AssignStmt:
		if c.containsRelease(s) {
			st.acq = nil
		}
		if call, ok := c.containsAcquire(s); ok {
			return st, &pendingEffect{isAcquire: true, acq: &acquire{pos: call.Pos(), name: callName(call)}, errVars: c.errVarsOf(s)}
		}
		if c.containsConsume(s) {
			return st, &pendingEffect{errVars: c.errVarsOf(s)}
		}
		return st, nil
	case *ast.IfStmt:
		if s.Init != nil {
			// `if err := acquire(); err != nil { ... }` (or a consume):
			// the body is the call's own failure path and runs with the
			// pre-call state.
			if as, ok := s.Init.(*ast.AssignStmt); ok {
				call, isAcq := c.containsAcquire(as)
				isCons := !isAcq && c.containsConsume(as)
				if (isAcq || isCons) && condMentions(s.Cond, c.errVarsOf(as)) {
					thenSt := c.walkStmts(s.Body.List, st)
					elseSt := st
					if s.Else != nil {
						elseSt = c.walkStmt(s.Else, st)
					}
					out := mergeStates(thenSt, elseSt)
					if isAcq {
						if out.acq == nil {
							out.acq = &acquire{pos: call.Pos(), name: callName(call)}
						}
					} else {
						out.acq = nil
					}
					return out, nil
				}
			}
			st = c.walkStmt(s.Init, st)
		}
		thenSt := c.walkStmts(s.Body.List, st)
		elseSt := st
		if s.Else != nil {
			elseSt = c.walkStmt(s.Else, st)
		}
		return mergeStates(thenSt, elseSt), nil
	case *ast.ForStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		return c.walkLoop(s.Body, st), nil
	case *ast.RangeStmt:
		return c.walkLoop(s.Body, st), nil
	case *ast.SwitchStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		return c.walkClauses(s.Body, st), nil
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st = c.walkStmt(s.Init, st)
		}
		return c.walkClauses(s.Body, st), nil
	case *ast.SelectStmt:
		return c.walkClauses(s.Body, st), nil
	case *ast.LabeledStmt:
		return c.walkStmt2(s.Stmt, st)
	case *ast.DeferStmt:
		return st, nil
	default:
		if c.containsRelease(s) {
			st.acq = nil
		}
		if call, ok := c.containsAcquire(s); ok {
			return st, &pendingEffect{isAcquire: true, acq: &acquire{pos: call.Pos(), name: callName(call)}}
		}
		if c.containsConsume(s) {
			return st, &pendingEffect{}
		}
		return st, nil
	}
}

// walkLoop walks a loop body to a fixpoint: first silently to learn
// whether an iteration can exit with an acquisition outstanding, then
// reporting with that carried-over state.
func (c *checker) walkLoop(body *ast.BlockStmt, st state) state {
	c.silent++
	probe := c.walkStmts(body.List, st)
	c.silent--
	entry := st
	if !probe.terminated && probe.acq != nil && entry.acq == nil {
		entry.acq = probe.acq
	}
	out := c.walkStmts(body.List, entry)
	if out.terminated {
		out.terminated = false // the loop may simply not execute
	}
	return mergeStates(out, st)
}

func (c *checker) walkClauses(body *ast.BlockStmt, st state) state {
	out := state{terminated: true}
	for _, cl := range body.List {
		var stmts []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			stmts = cl.Body
		case *ast.CommClause:
			stmts = cl.Body
		}
		out = mergeStates(out, c.walkStmts(stmts, st))
	}
	return mergeStates(out, st)
}

func mergeStates(a, b state) state {
	if a.terminated {
		return b
	}
	if b.terminated {
		return a
	}
	if a.acq != nil {
		return a
	}
	return b
}

// isErrorReturn reports whether ret returns a (possibly) non-nil error.
func (c *checker) isErrorReturn(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		// Naked return with a named error result: conservatively an
		// error path (callers should prefer explicit returns here).
		return c.namedErr != ""
	}
	last := ret.Results[len(ret.Results)-1]
	// Multi-value `return f(...)` forwarding: treat as a possible error.
	if len(ret.Results) == 1 {
		if _, ok := last.(*ast.CallExpr); ok {
			return true
		}
	}
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	return true
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "acquisition"
}
