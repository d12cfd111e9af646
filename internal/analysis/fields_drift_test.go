package analysis_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestUnexportedFieldsAreRead is the drift check against write-only state in
// internal/: every unexported field of a struct type declared there
// (anonymous structs nested in one included) that a non-test file writes
// must also be read by one, or be listed in writeOnlyFields with the reason
// it stays. A composite-literal key, an assignment target and the operand
// of ++ or -- are writes; every other use of the field is a read. A field
// the program only writes is memory and code that change nothing, and the
// reference check above passes it, because a write is a reference. Fields
// no non-test file names (set by position, the struct compared or hashed
// as a whole) are not checked.
func TestUnexportedFieldsAreRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module; skipped with -short")
	}
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}

	read := make(map[types.Object]bool)
	written := make(map[types.Object]bool)
	for _, pkg := range mod.pkgs {
		targets := make(map[ast.Expr]bool)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					if _, ok := pkg.Info.TypeOf(n).Underlying().(*types.Struct); !ok {
						return true
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[origin(pkg.Info.Uses[kv.Key.(*ast.Ident)])] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						targets[ast.Unparen(lhs)] = true
					}
				case *ast.IncDecStmt:
					targets[ast.Unparen(n.X)] = true
				case *ast.SelectorExpr:
					if s := pkg.Info.Selections[n]; s != nil && s.Kind() == types.FieldVal {
						if targets[n] {
							written[origin(s.Obj())] = true
						} else {
							read[origin(s.Obj())] = true
						}
					}
				}
				return true
			})
		}
	}

	prefix := mod.loader.ModulePath + "/internal/"
	unread := make(map[string]string) // key -> file:line
	for _, pkg := range mod.pkgs {
		if !strings.HasPrefix(pkg.Path+"/", prefix) {
			continue
		}
		rel := strings.TrimPrefix(pkg.Path, prefix)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				ast.Inspect(ts.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							obj := pkg.Info.Defs[name]
							if obj.Exported() || !written[obj] || read[obj] {
								continue
							}
							pos := mod.loader.Fset.Position(name.Pos())
							file, _ := filepath.Rel(mod.loader.ModuleDir, pos.Filename)
							unread[rel+"."+ts.Name.Name+"."+name.Name] = fmt.Sprintf("%s:%d", filepath.ToSlash(file), pos.Line)
						}
					}
					return true
				})
				return false
			})
		}
	}

	var fresh, stale []string
	for name := range unread {
		if _, ok := writeOnlyFields[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	for name := range writeOnlyFields {
		if _, ok := unread[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(fresh)
	sort.Strings(stale)
	for _, name := range fresh {
		t.Errorf("%s: internal/%s is written but no non-test file reads it: read it, delete it with its writes, or list it in writeOnlyFields with a reason", unread[name], name)
	}
	for _, name := range stale {
		t.Errorf("writeOnlyFields lists internal/%s, which is gone or now read by a non-test file: drop the entry", name)
	}
}

// writeOnlyFields is the allowlist of unexported fields the program writes
// and never reads, keyed "<package under internal/>.<type>.<field>", each
// with the reason it stays.
var writeOnlyFields = map[string]string{}
