package analysis_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// meterFirstPinned lists the funcs that keep a *vclock.Meter parameter,
// each with its reason: benchmark/ calls them with a meter or nil, and
// BENCHMARK.json pins its files. Each converts to an OpCtx once, at its top.
var meterFirstPinned = map[string]string{
	"core.Platform.Boot":            "benchmark/workloads.go, env.go",
	"core.Platform.Destroy":         "benchmark/workloads.go, env.go",
	"guest.Boot":                    "benchmark/workloads.go, env.go",
	"fuzz.Session.Iterate":          "benchmark/env.go",
	"toolstack.XL.Create":           "benchmark/env.go",
	"toolstack.XL.Destroy":          "benchmark/env.go",
	"toolstack.XL.Save":             "benchmark/workloads.go, env.go, probes.go",
	"toolstack.XL.Restore":          "benchmark/env.go",
	"toolstack.ImageStore.Insert":   "benchmark/workloads.go, probes.go",
	"mem.Space.Write":               "benchmark/workloads.go, env.go, probes.go",
	"devices.NetBackend.CreateVif":  "benchmark/probes.go",
	"devices.NetBackend.CloneVif":   "benchmark/probes.go",
	"devices.NetBackend.RemoveVif":  "benchmark/probes.go",
	"devices.ConsoleBackend.Create": "benchmark/probes.go",
	"devices.ConsoleBackend.Clone":  "benchmark/probes.go",
}

// meterDirs are the directories rule A does not scan, each with its reason.
var meterDirs = map[string]string{
	"internal/vclock":   "defines the meter",
	"internal/xenstore": "benchmark/probes.go calls four request methods that share one body with the rest, so the store moves as a whole with benchmark/",
	"benchmark":         "BENCHMARK.json pins its files; it moves with the pinned funcs above",
}

// TestOpCtxThreading holds the tree to the OpCtx discipline (DESIGN.md
// §12), parsing every non-test file outside internal/obs, internal/analysis
// and testdata, benchmark/ included:
//
//   - (A) one context type: a func, method, func literal, func type,
//     func-typed field or interface method with a *vclock.Meter parameter
//     fails outside meterDirs, unless meterFirstPinned lists the func;
//   - (B) thread, don't mint: inside a func or func literal with an
//     obs.OpCtx parameter, closures included, obs.Ctx, obs.NewTrace,
//     vclock.NewMeter and an obs.OpCtx{} literal start a fresh meter or
//     trace whose time never merges back into the operation's.
func TestOpCtxThreading(t *testing.T) {
	root, files := programFiles(t)
	c := newOpctxCheck(meterFirstPinned)
	for _, file := range files {
		dir := path.Dir(file)
		if dir == "internal/obs" || strings.HasPrefix(file, "internal/analysis/") {
			continue
		}
		pkg := ""
		if _, ok := meterDirs[dir]; !ok {
			pkg = path.Base(dir)
		}
		if err := c.file(filepath.Join(root, file), file, pkg); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range c.found {
		t.Error(f)
	}
	for _, key := range c.stale() {
		t.Errorf("meterFirstPinned lists %s, which is gone or no longer takes a meter: drop the entry", key)
	}
}

// TestOpCtxMintFixture runs the scan over testdata/opctx/a.go with rule A
// off: it must report exactly rule B's "// want" lines.
func TestOpCtxMintFixture(t *testing.T) {
	c := newOpctxCheck(nil)
	checkOpctxFixture(t, c, "a.go", "")
	if got := c.stale(); len(got) != 0 {
		t.Errorf("stale = %q, want none", got)
	}
}

// TestOpCtxSignatureFixture runs the scan over testdata/opctx/sig.go under
// two package names: it must report exactly the "// want" lines and a stale
// allowlist entry either way.
func TestOpCtxSignatureFixture(t *testing.T) {
	for _, pkg := range []string{"core", "toolstack"} {
		t.Run(pkg, func(t *testing.T) {
			c := newOpctxCheck(map[string]string{pkg + ".Platform.Boot": "fixture", pkg + ".Platform.Gone": "fixture"})
			checkOpctxFixture(t, c, "sig.go", pkg)
			if got := c.stale(); !slices.Equal(got, []string{pkg + ".Platform.Gone"}) {
				t.Errorf("stale = %q, want [%s.Platform.Gone]", got, pkg)
			}
		})
	}
}

// checkOpctxFixture scans testdata/opctx/name as package pkg and compares
// c's findings with the file's "// want" lines, in order.
func checkOpctxFixture(t *testing.T, c *opctxCheck, name, pkg string) {
	t.Helper()
	file := filepath.Join("testdata", "opctx", name)
	if err := c.file(file, name, pkg); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i, line := range strings.Split(string(src), "\n") {
		if _, w, ok := strings.Cut(line, "// want "); ok {
			want = append(want, fmt.Sprintf("%s:%d: %s", name, i+1, w))
		}
	}
	if len(c.found) != len(want) {
		t.Errorf("%d findings, want %d:\n%s", len(c.found), len(want), strings.Join(c.found, "\n"))
	}
	for i := range min(len(c.found), len(want)) {
		at, what, _ := strings.Cut(want[i], " ")
		if !strings.HasPrefix(c.found[i], at) || !strings.Contains(c.found[i], what) {
			t.Errorf("finding %q, want %s", c.found[i], want[i])
		}
	}
}

// opctxCheck is the parse-only scan behind TestOpCtxThreading.
type opctxCheck struct {
	fset   *token.FileSet
	pinned map[string]string
	used   map[string]bool // pinned entries the scan met
	found  []string        // "file:line: message", in scan order
}

func newOpctxCheck(pinned map[string]string) *opctxCheck {
	return &opctxCheck{fset: token.NewFileSet(), pinned: pinned, used: make(map[string]bool)}
}

// stale returns the pinned entries no scanned func matched, sorted.
func (c *opctxCheck) stale() []string {
	var out []string
	for key := range c.pinned {
		if !c.used[key] {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out
}

// file scans the file at filename, reported as name. pkg is the package
// name rule A checks it under, or "" to leave rule A off.
func (c *opctxCheck) file(filename, name, pkg string) error {
	f, err := parser.ParseFile(c.fset, filename, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	// The local names of obs and vclock in this file ("" if not imported).
	var obsName, vclockName string
	for _, imp := range f.Imports {
		local := ""
		if imp.Name != nil {
			local = imp.Name.Name
		}
		switch p, _ := strconv.Unquote(imp.Path.Value); p {
		case "nephele/internal/obs":
			obsName = cmp.Or(local, "obs")
		case "nephele/internal/vclock":
			vclockName = cmp.Or(local, "vclock")
		}
	}
	// is reports whether e is local.sel, local being an import's name.
	is := func(e ast.Expr, local, sel string) bool {
		s, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := s.X.(*ast.Ident)
		return ok && local != "" && x.Name == local && s.Sel.Name == sel
	}
	// takes reports whether params has a local.typ parameter, by pointer,
	// or also by value when byValue is set.
	takes := func(params *ast.FieldList, local, typ string, byValue bool) bool {
		for _, p := range params.List {
			e := p.Type
			if star, ok := e.(*ast.StarExpr); ok {
				e = star.X
			} else if !byValue {
				continue
			}
			if is(e, local, typ) {
				return true
			}
		}
		return false
	}
	report := func(n ast.Node, format string, args ...any) {
		c.found = append(c.found, fmt.Sprintf("%s:%d: %s", name, c.fset.Position(n.Pos()).Line, fmt.Sprintf(format, args...)))
	}
	// walk checks n, which lies inside an operation when inOp is set.
	var walk func(n ast.Node, inOp bool)
	walk = func(n ast.Node, inOp bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if !inOp && takes(n.Type.Params, obsName, "OpCtx", true) {
					walk(n.Body, true)
					return false
				}
			case *ast.CallExpr:
				fun := ast.Unparen(n.Fun)
				switch {
				case !inOp:
				case is(fun, obsName, "Ctx"):
					report(n, "obs.Ctx mints a fresh OpCtx inside an operation that holds one; thread the in-scope ctx")
				case is(fun, obsName, "NewTrace"):
					report(n, "obs.NewTrace inside an operation forks its trace; record onto the in-scope ctx's trace")
				case is(fun, vclockName, "NewMeter"):
					report(n, "vclock.NewMeter inside an operation forks virtual time; use the ctx's meter (EnsureMeter)")
				}
			case *ast.CompositeLit:
				if inOp && is(n.Type, obsName, "OpCtx") {
					report(n, "bare OpCtx literal inside an operation drops its meter and trace; derive from ctx")
				}
			}
			return true
		})
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if pkg != "" {
			ast.Inspect(d, func(n ast.Node) bool {
				ft, ok := n.(*ast.FuncType)
				if !ok || !takes(ft.Params, vclockName, "Meter", false) {
					return true
				}
				if fd == nil || ft != fd.Type {
					report(ft, "func type takes a *vclock.Meter; take ctx obs.OpCtx first")
					return true
				}
				key := pkg + "." + recvName(fd) + fd.Name.Name
				if _, ok := c.pinned[key]; ok {
					c.used[key] = true
				} else {
					report(fd, "%s takes a *vclock.Meter; take ctx obs.OpCtx first", key)
				}
				return true
			})
		}
		if !ok {
			walk(d, false)
			continue
		}
		if fd.Body != nil {
			walk(fd.Body, takes(fd.Type.Params, obsName, "OpCtx", true))
		}
	}
	return nil
}

// recvName is "T." for a method of T or *T, and "" for a func.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
