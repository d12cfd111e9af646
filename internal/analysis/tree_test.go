package analysis_test

import (
	"errors"
	"fmt"
	"go/build"
	"path/filepath"
	"sync"
	"testing"

	"nephele/internal/analysis"
	"nephele/internal/analysis/hotalloc"
)

// TestTreeIsClean runs every analyzer over the whole module and fails on
// any unwaived finding, unused waiver, or waiver whose token no analyzer
// owns. It is the only runner of the analyzers: `go test ./...` is how the
// tree is linted.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint type-checks the module; skipped with -short")
	}
	mod, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	analyzers := []*analysis.Analyzer{hotalloc.Analyzer}
	for _, pkg := range mod.pkgs {
		findings, err := analysis.Run(pkg, analyzers)
		if err != nil {
			t.Fatalf("run %s: %v", pkg.Dir, err)
		}
		for _, d := range findings {
			if rel, err := filepath.Rel(mod.loader.ModuleDir, d.Pos.Filename); err == nil {
				d.Pos.Filename = filepath.ToSlash(rel)
			}
			t.Errorf("%s", d)
		}
	}
}

// module is the whole module, type-checked once for the tree-wide tests.
type module struct {
	loader *analysis.Loader
	pkgs   []*analysis.Package
}

var loadModule = sync.OnceValues(func() (*module, error) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, fmt.Errorf("loader: %w", err)
	}
	dirs, err := analysis.PackageDirs(loader.ModuleDir)
	if err != nil {
		return nil, fmt.Errorf("walk: %w", err)
	}
	mod := &module{loader: loader}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			return nil, fmt.Errorf("load %s: %w", dir, err)
		}
		mod.pkgs = append(mod.pkgs, pkg)
	}
	return mod, nil
})
