package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nephele/internal/analysis"
)

// bannedUses is the table TestNoHostNondeterminism checks: the members of a
// package no program file in scope may name. A row with names bans each of
// them wherever it appears; a row with allowed instead bans every call into
// the package but those. internal/ rows leave the host-facing drivers (cmd,
// benchmark, examples) free to time themselves.
var bannedUses = []struct {
	scope, pkg, why string
	names, allowed  []string
}{
	{"", "sync", "a lock: one goroutine drives a platform", []string{"Mutex", "RWMutex", "Once", "WaitGroup", "Cond"}, nil},
	{"internal/", "time", "wall-clock time", []string{"Now", "Since", "Until"}, nil},
	{"internal/", "time", "a host-clock wait", []string{"After", "Sleep", "NewTimer", "NewTicker", "Tick", "AfterFunc"}, nil},
	{"internal/", "runtime", "goroutine-dependent logic", []string{"NumGoroutine", "Stack"}, nil},
	{"internal/", "math/rand", "process-global randomness", nil, []string{"New", "NewSource"}},
	{"internal/", "math/rand/v2", "process-global randomness", nil, []string{"New", "NewPCG", "NewChaCha8"}},
}

// exemptUses are the banned uses one file keeps, keyed "<file> <import path>",
// each with its reason.
var exemptUses = map[string]string{
	"internal/obs/span.go time": "a span records its wall time for profiling; nothing orders, charges or renders by it",
}

// TestNoHostNondeterminism holds the tree to the contract that identical
// inputs give byte-identical virtual series, driven by one goroutine
// (DESIGN.md §11, §12.2). No non-test file outside internal/analysis and
// testdata may start a goroutine, spell a channel type, import sync/atomic
// or use a bannedUses entry. The one channel allowed is the completion
// channel named Done (hv.CloneResult.Done and the record that closes it),
// which benchmark/ waits on. sync.Pool is allowed: the page pools hold free
// pages, not platform state. Map iteration order is not checked here: the
// golden tests compute every series twice in one process and compare.
func TestNoHostNondeterminism(t *testing.T) {
	root, files := programFiles(t)
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasPrefix(file, "internal/analysis/") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(root, file), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		report := func(n ast.Node, what string) {
			t.Errorf("%s:%d: %s", file, fset.Position(n.Pos()).Line, what)
		}
		imported := map[string]string{} // local name -> import path
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "sync/atomic" {
				report(imp, "imports sync/atomic")
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if p == "math/rand/v2" {
				name = "rand"
			}
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imported[name] = p
		}
		called := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n, "go statement")
			case *ast.Field:
				// The Done field's channel type is the allowed one.
				if len(n.Names) == 1 && n.Names[0].Name == "Done" {
					return false
				}
			case *ast.KeyValueExpr:
				// So is the channel a composite literal makes for Done.
				if k, ok := n.Key.(*ast.Ident); ok && k.Name == "Done" {
					return false
				}
			case *ast.ChanType:
				report(n, "channel type")
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel] = true
				}
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				if !ok || imported[x.Name] == "" || exemptUses[file+" "+imported[x.Name]] != "" {
					break
				}
				for _, b := range bannedUses {
					if b.pkg == imported[x.Name] && strings.HasPrefix(file, b.scope) &&
						(slices.Contains(b.names, n.Sel.Name) || b.names == nil && called[n] && !slices.Contains(b.allowed, n.Sel.Name)) {
						report(n, b.pkg+"."+n.Sel.Name+": "+b.why)
					}
				}
			}
			return true
		})
	}
}

// programFiles returns the module root and the module-relative,
// slash-separated paths of its non-test .go files outside testdata.
func programFiles(t *testing.T) (root string, files []string) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := analysis.PackageDirs(loader.ModuleDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		paths, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		for _, path := range paths {
			if !strings.HasSuffix(path, "_test.go") {
				rel, _ := filepath.Rel(loader.ModuleDir, path)
				files = append(files, filepath.ToSlash(rel))
			}
		}
	}
	return loader.ModuleDir, files
}
