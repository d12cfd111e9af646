package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nephele/internal/analysis"
)

// TestNoConcurrencyPrimitives holds the tree to the contract that one
// goroutine drives a Platform or Cluster (DESIGN.md §12.2). No non-test file
// outside internal/analysis and testdata may start a goroutine, spell a
// channel type, use a sync lock, Once, WaitGroup or Cond, or import
// sync/atomic. The one channel allowed is the completion channel named Done
// (hv.CloneResult.Done and the record that closes it), which benchmark/
// waits on. sync.Pool is allowed: the page pools hold free pages, not
// platform state.
func TestNoConcurrencyPrimitives(t *testing.T) {
	root, files := programFiles(t)
	bannedSync := map[string]bool{"Mutex": true, "RWMutex": true, "Once": true, "WaitGroup": true, "Cond": true}
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
		syncName := ""
		for _, imp := range f.Imports {
			switch p, _ := strconv.Unquote(imp.Path.Value); p {
			case "sync/atomic":
				report(imp, "imports sync/atomic")
			case "sync":
				syncName = "sync"
				if imp.Name != nil {
					syncName = imp.Name.Name
				}
			}
		}
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
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && syncName != "" && x.Name == syncName && bannedSync[n.Sel.Name] {
					report(n, "sync."+n.Sel.Name)
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
