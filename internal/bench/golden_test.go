package bench

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure series from the current simulation")

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

func TestGoldenFig4Series(t *testing.T) {
	fig, err := Fig4(Fig4Config{Instances: 60, SampleEvery: 15})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-fig4.txt", fig.String())
}

func TestGoldenFig5Series(t *testing.T) {
	fig, err := Fig5(Fig5Config{HypMemoryBytes: 1 << 30, Dom0MemoryBytes: 1 << 30, SampleEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-fig5.txt", fig.String())
}

func TestGoldenFig6Series(t *testing.T) {
	fig, err := Fig6(Fig6Config{SizesMB: []int{1, 4, 64, 1024}, Repetitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-fig6.txt", fig.String())
}
