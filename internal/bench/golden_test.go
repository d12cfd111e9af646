package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure series from the current simulation")

// quickFigs holds each figure's quick form, computed once per test binary
// and shared by the golden test and the shape tests.
var quickFigs = map[string]*Figure{}

// quickFigure returns the quick form of the Figures entry called name.
// Callers must not modify it.
func quickFigure(t *testing.T, name string) *Figure {
	t.Helper()
	if fig, ok := quickFigs[name]; ok {
		return fig
	}
	for _, def := range Figures {
		if def.Name != name {
			continue
		}
		fig, err := def.Run(true, nil)
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		quickFigs[name] = fig
		return fig
	}
	t.Fatalf("no figure %q in Figures", name)
	return nil
}

// The golden-series tests pin the virtual-time output of the paper figures.
// Performance work on the clone hot path (extent batching, parallel
// fan-out, allocator changes) must leave every simulated duration
// byte-identical: wall-clock optimizations are only admissible when the
// virtual timeline cannot tell the difference. Regenerate with
// `go test ./internal/bench -run TestGolden -update` only when a PR
// deliberately changes the cost model or the simulated pipeline.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("virtual-time series diverged from %s.\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// checkRepeated fails unless two computations of one series, each on fresh
// platforms, rendered byte-identical. Go starts every map iteration at a
// random point, so an order dependence on a path the series reaches shows
// here within one process; the golden files catch it across processes.
func checkRepeated(t *testing.T, first, second string) {
	t.Helper()
	if first != second {
		t.Fatalf("two runs in one process rendered different series.\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}

// TestGoldenFigures pins every figure of the table at its quick scale, one
// testdata/golden-<name>.txt per entry, so a figure added to Figures
// without a golden file fails here. Concatenated in table order, the files
// are `nephele-bench -fig all -quick` without its host-cost footers. Each
// figure is computed a second time, not from quickFigs, and the two must
// agree before either is compared with its file.
func TestGoldenFigures(t *testing.T) {
	for _, def := range Figures {
		t.Run(def.Name, func(t *testing.T) {
			again, err := def.Run(true, nil)
			if err != nil {
				t.Fatalf("figure %s: %v", def.Name, err)
			}
			got := quickFigure(t, def.Name).String()
			checkRepeated(t, got, again.String())
			checkGolden(t, "golden-"+def.Name+".txt", got)
		})
	}
}
