package analysis_test

import (
	"errors"
	"go/build"
	"testing"

	"nephele/internal/analysis"
	"nephele/internal/analysis/determinism"
	"nephele/internal/analysis/faultcover"
	"nephele/internal/analysis/hotalloc"
	"nephele/internal/analysis/lockorder"
	"nephele/internal/analysis/opctx"
	"nephele/internal/analysis/refleak"
	"nephele/internal/analysis/seqlock"
	"nephele/internal/analysis/spanend"
)

// TestTreeIsClean runs every analyzer over the whole module and fails on
// any unwaived finding, so `go test ./...` enforces the same invariants CI
// checks via cmd/nephele-lint. The faultcover facts collected along the
// way feed the tree-wide registry verification (every point listed, used,
// and test-covered).
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree lint type-checks the module; skipped with -short")
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := analysis.PackageDirs(loader.ModuleDir)
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	analyzers := []*analysis.Analyzer{
		lockorder.Analyzer,
		determinism.Analyzer,
		seqlock.Analyzer,
		refleak.Analyzer,
		spanend.Analyzer,
		opctx.Analyzer,
		faultcover.Analyzer,
		hotalloc.Analyzer,
	}
	var facts []analysis.Fact
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			t.Fatalf("load %s: %v", dir, err)
		}
		res, err := analysis.RunAll(pkg, analyzers)
		if err != nil {
			t.Fatalf("run %s: %v", dir, err)
		}
		for _, d := range res.Findings {
			t.Errorf("%s", d)
		}
		facts = append(facts, res.Facts...)
	}
	tf := faultcover.Collect(facts)
	if err := tf.AddTestRefs(loader.ModuleDir); err != nil {
		t.Fatalf("test refs: %v", err)
	}
	for _, v := range tf.Verify() {
		t.Errorf("fault registry: %s", v)
	}
}
