package fault_test

import (
	"path/filepath"
	"testing"

	"nephele/internal/analysis/faultcover"
	"nephele/internal/fault"
)

// TestPointListsCoverTree is the registry drift check: the *Points lists
// must enumerate exactly the fault-point constants this package declares,
// every point must be consulted somewhere in the tree, and every point
// must be reachable from at least one test (directly or through a list a
// test iterates). It uses faultcover's parse-only tree scan, so it stays
// fast enough to run un-skipped; TestTreeIsClean re-checks the same
// invariants from full type-checked analyzer facts.
func TestPointListsCoverTree(t *testing.T) {
	faultDir, err := faultcover.FaultDir(".")
	if err != nil {
		t.Fatalf("locating fault package: %v", err)
	}
	root := filepath.Dir(filepath.Dir(faultDir))
	tf, err := faultcover.ScanTree(root, faultDir)
	if err != nil {
		t.Fatalf("scanning tree: %v", err)
	}
	if len(tf.Points) == 0 {
		t.Fatal("tree scan found no fault points; the scanner is broken")
	}
	for _, v := range tf.Verify() {
		t.Errorf("%s", v)
	}

	// The scan keys on naming conventions; cross-check that every declared
	// list is present so a renamed list cannot silently drop out.
	lists := map[string][]string{
		"CachePoints":       fault.CachePoints(),
		"FirstStagePoints":  fault.FirstStagePoints(),
		"SecondStagePoints": fault.SecondStagePoints(),
		"PipelinePoints":    fault.PipelinePoints(),
		"LazyPoints":        fault.LazyPoints(),
		"ClusterPoints":     fault.ClusterPoints(),
	}
	enumerated := make(map[string]bool)
	for name, pts := range lists {
		if len(pts) == 0 {
			t.Errorf("%s is empty", name)
		}
		for _, p := range pts {
			enumerated[p] = true
		}
	}
	for name, lit := range tf.Points {
		if !enumerated[lit] {
			t.Errorf("fault point %s (%q) is missing from the compiled lists; update the lists map in this test if a new list was added", name, lit)
		}
	}
}
