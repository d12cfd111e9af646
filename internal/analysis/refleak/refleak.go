// Package refleak verifies that frame-reference acquisitions (ShareN,
// AddSharerN, AllocN and their page-table forms on a Memory or Space) are
// discharged on every error-return path, where a discharge may happen
// *through a helper call* — a shape an intraprocedural walk can only see
// when the release is spelled inline.
//
// The clone pipeline's failure protocol (DESIGN.md §8) requires that a
// clone which dies part-way leaves the parent exactly as it was. -race and
// the fault-matrix tests only catch a forgotten rollback when the failing
// schedule actually runs; this analyzer rejects the shape at CI time.
//
// The pass runs on the shared CFG (internal/analysis/cfg) with a
// package-level call-graph summary (internal/analysis/callgraph): a
// function's summary says whether it transitively reaches a release
// operation, and any call to such a helper — directly, deferred, or in a
// return expression — discharges the caller's outstanding acquisitions,
// exactly like an inline ReleaseN. CopyFrameN counts as a release (it
// breaks the COW share and drops the sharer reference).
//
// Branch sensitivity comes from the CFG keeping each condition attached
// to its block:
//
//   - `err := m.ShareN(...)` followed (anywhere, not just on the next
//     statement) by `if err != nil` clears the obligation on the failure
//     branch — a failed acquire acquired nothing;
//   - after falling through an `err != nil` guard, `err` is known nil, so
//     a trailing `return err` is a success path, not an error path.
//
// Obligations survive loop back edges, so an error return in iteration
// i+1 sees iteration i's acquisitions. Ownership transfer on success
// paths (the acquired references living on in the receiver or a returned
// child) is out of scope by construction: only error-path exits are
// classified, matching the rollback protocol's contract (DESIGN.md §8)
// that a failed operation leaves the pool balanced.
//
// Waive with //nephele:refleak-ok and a justification.
package refleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"nephele/internal/analysis"
	"nephele/internal/analysis/callgraph"
	"nephele/internal/analysis/cfg"
)

// Analyzer is the interprocedural reference-leak pass.
var Analyzer = &analysis.Analyzer{
	Name:     "refleak",
	Doc:      "verifies acquisitions are discharged on every error path, tracking releases through same-package helper calls",
	Suppress: "nephele:refleak-ok",
	Run:      run,
}

// The acquire/release vocabulary. CopyFrameN is on the release side:
// breaking a COW share drops the sharer reference.
var acquireNames = map[string]bool{
	"AllocN": true,
	"ShareN": true, "sharePTEs": true,
	"AddSharerN": true, "addSharerPTEs": true,
}

var releaseNames = map[string]bool{
	"Release": true, "ReleaseN": true, "release": true, "releasePTEs": true,
	"CopyFrameN": true,
}

// releaseAnyRecv are discharges honored on any receiver: destroying the
// half-built domain releases everything it accumulated.
var releaseAnyRecv = map[string]bool{
	"DomainDestroy": true,
}

const (
	maxSites   = 64 // acquire sites tracked per function
	maxErrVars = 64 // error variables tracked per function
)

func run(pass *analysis.Pass) error {
	g := callgraph.New(pass.Pkg, pass.TypesInfo, pass.Files)
	releasers := summarize(pass, g)
	for _, n := range g.Nodes {
		checkFunc(pass, n.Decl, releasers)
	}
	return nil
}

// summarize computes, for every function in the package, whether it
// transitively reaches a release operation.
func summarize(pass *analysis.Pass, g *callgraph.Graph) map[*types.Func]bool {
	rel := make(map[*types.Func]bool)
	for _, n := range g.Nodes {
		direct := false
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok && isReleaseOp(pass, call) {
				direct = true
			}
			return !direct
		})
		rel[n.Func] = direct
	}
	g.Fixpoint(func(n *callgraph.Node) bool {
		if rel[n.Func] {
			return false
		}
		for _, c := range n.Callees {
			if rel[c.Func] {
				rel[n.Func] = true
				return true
			}
		}
		return false
	})
	return rel
}

// recvTypeName resolves the named receiver type and method name of a call.
func recvTypeName(pass *analysis.Pass, call *ast.CallExpr) (string, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	tv, ok := pass.TypesInfo.Types[sel.X]
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

func isPoolRecv(recv string) bool { return recv == "Memory" || recv == "Space" }

func isAcquireOp(pass *analysis.Pass, call *ast.CallExpr) bool {
	recv, name, ok := recvTypeName(pass, call)
	return ok && acquireNames[name] && isPoolRecv(recv)
}

func isReleaseOp(pass *analysis.Pass, call *ast.CallExpr) bool {
	recv, name, ok := recvTypeName(pass, call)
	if !ok {
		return false
	}
	return releaseAnyRecv[name] || (releaseNames[name] && isPoolRecv(recv))
}

// checker carries one function's analysis context.
type checker struct {
	pass      *analysis.Pass
	releasers map[*types.Func]bool
	// releaseClosures are local closure objects whose bodies discharge.
	releaseClosures map[types.Object]bool
	// sites are the acquire call sites, in source order.
	sites []*ast.CallExpr
	// siteIdx maps an acquire call to its bit index.
	siteIdx map[*ast.CallExpr]int
	// errIdx maps tracked error variables to bit indices.
	errIdx map[*types.Var]int
	// namedErr is the function's named error result, if any.
	namedErr *types.Var
}

// state is the per-path dataflow state.
type state struct {
	open uint64 // may-be-outstanding acquire sites
	// assoc[e] is the set of sites whose own success is still contingent
	// on error variable e: the failure branch of `e != nil` clears them.
	assoc [maxErrVars]uint64
	// nilErr marks error variables known nil on this path (fell through
	// their `!= nil` guard), making a trailing `return err` a success.
	nilErr uint64
}

func mergeInto(dst *state, src state) bool {
	changed := false
	if dst.open|src.open != dst.open {
		dst.open |= src.open
		changed = true
	}
	for i := range dst.assoc {
		if dst.assoc[i]|src.assoc[i] != dst.assoc[i] {
			dst.assoc[i] |= src.assoc[i]
			changed = true
		}
	}
	if dst.nilErr&src.nilErr != dst.nilErr {
		dst.nilErr &= src.nilErr // intersection: nil only if nil on all paths
		changed = true
	}
	return changed
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, releasers map[*types.Func]bool) {
	c := &checker{
		pass:            pass,
		releasers:       releasers,
		releaseClosures: make(map[types.Object]bool),
		siteIdx:         make(map[*ast.CallExpr]int),
		errIdx:          make(map[*types.Var]int),
	}
	if !c.errorResult(fd) {
		return
	}
	// Collect direct acquire sites outside nested function literals: the
	// CFG does not span literal boundaries, and no non-test code acquires
	// inside one.
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isAcquireOp(pass, call) {
			if len(c.sites) < maxSites {
				c.siteIdx[call] = len(c.sites)
				c.sites = append(c.sites, call)
			}
		}
	})
	if len(c.sites) == 0 {
		return
	}
	// A deferred discharge — inline op, releasing helper, or releasing
	// closure — covers every path.
	c.collectReleaseClosures(fd.Body)
	deferred := false
	inspectSkippingFuncLits(fd.Body, func(n ast.Node) {
		if d, ok := n.(*ast.DeferStmt); ok && c.containsDischarge(d.Call) {
			deferred = true
		}
	})
	if deferred {
		return
	}
	c.analyze(fd)
}

// errorResult records the function's last result when it is an error.
func (c *checker) errorResult(fd *ast.FuncDecl) bool {
	res := fd.Type.Results
	if res == nil || len(res.List) == 0 {
		return false
	}
	last := res.List[len(res.List)-1]
	tv, ok := c.pass.TypesInfo.Types[last.Type]
	if !ok || !isErrorType(tv.Type) {
		return false
	}
	if len(last.Names) > 0 {
		if v, ok := c.pass.TypesInfo.Defs[last.Names[len(last.Names)-1]].(*types.Var); ok {
			c.namedErr = v
		}
	}
	return true
}

func isErrorType(t types.Type) bool { return types.TypeString(t, nil) == "error" }

func (c *checker) collectReleaseClosures(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			lit, ok := rhs.(*ast.FuncLit)
			if !ok || !c.containsInlineRelease(lit.Body) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					c.releaseClosures[obj] = true
				} else if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
					c.releaseClosures[obj] = true
				}
			}
		}
		return true
	})
}

func (c *checker) containsInlineRelease(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok && isReleaseOp(c.pass, call) {
			found = true
		}
		return !found
	})
	return found
}

// isDischarge reports whether one call discharges outstanding
// acquisitions whatever it returns: an inline release op, a call to a
// release closure, or a call to a same-package helper whose summary
// transitively releases.
func (c *checker) isDischarge(call *ast.CallExpr) bool {
	if isReleaseOp(c.pass, call) {
		return true
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil && c.releaseClosures[obj] {
			return true
		}
	}
	if fn := callgraph.StaticCallee(c.pass.TypesInfo, call); fn != nil && c.releasers[fn] {
		return true
	}
	return false
}

// containsDischarge reports whether any call under n discharges. A
// function literal only counts when it is invoked on the spot (the
// `defer func() { m.ReleaseN(n) }()` unwind shape); a literal that is
// merely defined here runs later, if ever.
func (c *checker) containsDischarge(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.CallExpr:
			if c.isDischarge(x) {
				found = true
				return false
			}
			if fl, ok := x.Fun.(*ast.FuncLit); ok && c.containsInlineRelease(fl.Body) {
				found = true
				return false
			}
		case *ast.FuncLit:
			return false
		}
		return true
	})
	return found
}

// errVarBit returns the bit for an error variable, registering it on
// first sight; ok is false past the tracking cap.
func (c *checker) errVarBit(v *types.Var) (uint64, bool) {
	if v == nil || !isErrorType(v.Type()) {
		return 0, false
	}
	if i, ok := c.errIdx[v]; ok {
		return 1 << uint(i), true
	}
	if len(c.errIdx) >= maxErrVars {
		return 0, false
	}
	c.errIdx[v] = len(c.errIdx)
	return 1 << uint(len(c.errIdx)-1), true
}

func (c *checker) varOf(id *ast.Ident) *types.Var {
	if v, ok := c.pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// transfer applies one CFG node to the state.
func (c *checker) transfer(n ast.Node, st state) state {
	// Discharges anywhere in the node (including return expressions —
	// `return fail(err)`) clear every obligation.
	if c.containsDischarge(n) {
		st.open = 0
	}
	// Acquire sites open obligations; their statement's error variables
	// become contingency guards.
	inspectSkippingFuncLits(n, func(x ast.Node) {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return
		}
		idx, tracked := c.siteIdx[call]
		if !tracked {
			return
		}
		st.open |= 1 << uint(idx)
	})
	if as, ok := n.(*ast.AssignStmt); ok {
		st = c.transferAssign(as, st)
	}
	return st
}

// transferAssign wires acquire sites to the error variables the statement
// assigns, and kills stale nil-ness/associations on reassignment.
func (c *checker) transferAssign(as *ast.AssignStmt, st state) state {
	var acquired uint64
	inspectSkippingFuncLits(as, func(x ast.Node) {
		if call, ok := x.(*ast.CallExpr); ok {
			if idx, tracked := c.siteIdx[call]; tracked {
				acquired |= 1 << uint(idx)
			}
		}
	})
	for _, lhs := range as.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		v := c.varOf(id)
		bit, ok := c.errVarBit(v)
		if !ok {
			continue
		}
		st.nilErr &^= bit // freshly assigned: nil-ness unknown
		i := c.errIdx[v]
		st.assoc[i] = acquired
	}
	return st
}

// branch refines the state along the true and false edges of a condition.
// Recognized shapes: `e != nil` and `e == nil` for a tracked error var.
func (c *checker) branch(cond ast.Expr, st state) (tru, fls state) {
	tru, fls = st, st
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (be.Op != token.NEQ && be.Op != token.EQL) {
		return
	}
	var errID *ast.Ident
	xid, xok := ast.Unparen(be.X).(*ast.Ident)
	yid, yok := ast.Unparen(be.Y).(*ast.Ident)
	switch {
	case xok && yok && yid.Name == "nil":
		errID = xid
	case xok && yok && xid.Name == "nil":
		errID = yid
	default:
		return
	}
	v := c.varOf(errID)
	bit, ok := c.errVarBit(v)
	if !ok {
		return
	}
	i := c.errIdx[v]
	nonNil, isNil := &tru, &fls
	if be.Op == token.EQL {
		nonNil, isNil = &fls, &tru
	}
	// Failure branch: the contingent acquisitions never happened.
	nonNil.open &^= st.assoc[i]
	// Success branch: the error variable is known nil, and nothing is
	// contingent on it any longer.
	isNil.nilErr |= bit
	nonNil.assoc[i], isNil.assoc[i] = 0, 0
	return
}

// errorReturn classifies an exit: does it (possibly) return a non-nil
// error?
func (c *checker) errorReturn(ret *ast.ReturnStmt, st state) bool {
	if len(ret.Results) == 0 {
		if c.namedErr == nil {
			return false
		}
		if bit, ok := c.errVarBit(c.namedErr); ok && st.nilErr&bit != 0 {
			return false
		}
		return true
	}
	last := ast.Unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok {
		if id.Name == "nil" {
			return false
		}
		if bit, ok := c.errVarBit(c.varOf(id)); ok && st.nilErr&bit != 0 {
			return false
		}
	}
	return true
}

func (c *checker) analyze(fd *ast.FuncDecl) {
	g := cfg.New(fd.Body)
	in := make([]state, len(g.Blocks))
	visited := make([]bool, len(g.Blocks))
	onWork := make([]bool, len(g.Blocks))
	// hasIn marks blocks whose in-state has been seeded by a
	// predecessor. nilErr is a must-fact merged by intersection, and the
	// zero state is NOT its identity (it claims nothing is known nil):
	// the first merge into a block must adopt the incoming state
	// wholesale, or a fact like "err is nil past its guard" could never
	// survive a block boundary. Only later merges intersect.
	hasIn := make([]bool, len(g.Blocks))
	hasIn[g.Entry.Index] = true // entry truly starts with nothing known
	work := []*cfg.Block{g.Entry}
	onWork[g.Entry.Index] = true
	// leaks maps site index -> earliest offending error return.
	leaks := make(map[int]token.Pos)

	propagate := func(to *cfg.Block, st state) []*cfg.Block {
		var changed bool
		if !hasIn[to.Index] {
			in[to.Index] = st
			hasIn[to.Index] = true
			changed = true
		} else {
			changed = mergeInto(&in[to.Index], st)
		}
		if changed || !visited[to.Index] {
			if !onWork[to.Index] {
				onWork[to.Index] = true
				return []*cfg.Block{to}
			}
		}
		return nil
	}

	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		onWork[b.Index] = false
		visited[b.Index] = true
		st := in[b.Index]
		for _, n := range b.Nodes {
			st = c.transfer(n, st)
		}
		if b.Return != nil && st.open != 0 && c.errorReturn(b.Return, st) {
			// Sites inside the return itself are tail-forwards
			// (`return m.AddSharerN(...)`): the returned error IS the
			// acquire's error, so a non-nil result means nothing was
			// acquired.
			open := st.open &^ c.sitesWithin(b.Return)
			for i := range c.sites {
				if open&(1<<uint(i)) == 0 {
					continue
				}
				if cur, ok := leaks[i]; !ok || b.Return.Pos() < cur {
					leaks[i] = b.Return.Pos()
				}
			}
		}
		if b.Cond != nil && len(b.Succs) == 2 {
			tru, fls := c.branch(b.Cond, st)
			work = append(work, propagate(b.Succs[0], tru)...)
			work = append(work, propagate(b.Succs[1], fls)...)
			continue
		}
		for _, s := range b.Succs {
			work = append(work, propagate(s, st)...)
		}
	}

	order := make([]int, 0, len(leaks))
	for i := range leaks {
		order = append(order, i)
	}
	sort.Ints(order)
	for _, i := range order {
		site := c.sites[i]
		c.pass.Reportf(leaks[i], "error return with unreleased %s (line %d): release it, call an unwind helper, or defer a rollback before returning",
			callName(site), c.pass.Fset.Position(site.Pos()).Line)
	}
}

// sitesWithin returns the bitmask of acquire sites under n.
func (c *checker) sitesWithin(n ast.Node) uint64 {
	var mask uint64
	inspectSkippingFuncLits(n, func(x ast.Node) {
		if call, ok := x.(*ast.CallExpr); ok {
			if idx, tracked := c.siteIdx[call]; tracked {
				mask |= 1 << uint(idx)
			}
		}
	})
	return mask
}

func callName(call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return "acquisition"
}

// inspectSkippingFuncLits walks n, not descending into function literals.
func inspectSkippingFuncLits(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if x != nil {
			fn(x)
		}
		return true
	})
}
