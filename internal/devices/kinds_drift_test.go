package devices_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nephele/internal/devices"
)

// TestDeviceKindsStayInOneModule is the drift check for the device-kind
// table: which kinds exist, and what their Xenstore directory and clone
// policy are called, is decided in this package (and named by
// internal/xenstore). It parses every non-test Go file of the module
// outside those two packages and benchmark/ and fails on a string literal
// equal to a kind's directory name or a reference to a xenstore.CloneDev*
// constant — program code reads both from the table.
func TestDeviceKindsStayInOneModule(t *testing.T) {
	// allowed lists the literals that spell a kind's name without meaning
	// the device kind.
	allowed := map[string]string{
		"internal/mem/space.go": "console", // PageKind.String(): the console ring page
	}
	dirs := make(map[string]bool)
	for _, k := range devices.NewTable(nil, nil, nil, nil) {
		dirs[k.Dir] = true
	}
	if len(dirs) == 0 {
		t.Fatal("the device-kind table is empty")
	}

	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	parsed := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if d.IsDir() {
			switch {
			case rel == "benchmark", rel == "internal/devices", rel == "internal/xenstore",
				d.Name() == "testdata", strings.HasPrefix(d.Name(), ".") && path != root:
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		parsed++
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.BasicLit:
				if n.Kind != token.STRING {
					return true
				}
				if s, err := strconv.Unquote(n.Value); err == nil && dirs[s] && allowed[rel] != s {
					t.Errorf("%s: string literal %q names a device kind; read it from the devices table", fset.Position(n.Pos()), s)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "xenstore" && strings.HasPrefix(n.Sel.Name, "CloneDev") {
					t.Errorf("%s: xenstore.%s names a device kind's clone policy; read Kind.CloneOp from the devices table", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed < 50 {
		t.Fatalf("parsed only %d files under %s; the walk is broken", parsed, root)
	}
}
