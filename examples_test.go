package nephele_test

import (
	"bytes"
	"flag"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var updateExamples = flag.Bool("update", false, "rewrite testdata/examples from the examples' current output")

// TestExamplesGolden builds every program under examples/, plus cmd/xl
// running the README's script, runs each one twice and compares its stdout
// with testdata/examples/<name>.txt. The programs print virtual times and
// counts only, so their output is byte-identical run to run and under any
// GOMAXPROCS: the two runs must agree before either is compared with the
// file, and Go's per-process map-order randomisation makes an order
// dependence show there. Regenerate with `go test -run TestExamplesGolden
// -update .` only when a change deliberately moves what a program prints.
func TestExamplesGolden(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	// xl is the only program that boots with the name check on and prints
	// the memory report.
	args := map[string][]string{"xl": {"-run", "create web, clone web 2, list, memory"}}
	names := []string{"xl"}
	for _, d := range dirs {
		names = append(names, d.Name())
	}
	// go test caches a pass keyed on the files this process opens, and
	// the build below runs in another process: read the sources here so
	// an edited program reruns the test.
	for _, root := range []string{"examples", filepath.Join("cmd", "xl")} {
		err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				_, err = os.ReadFile(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...", "./cmd/xl").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			run := func() []byte {
				var stderr bytes.Buffer
				cmd := exec.Command(filepath.Join(bin, name), args[name]...)
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
				}
				return out
			}
			got, again := run(), run()
			if !bytes.Equal(got, again) {
				t.Fatalf("two runs of %s printed different output.\nfirst:\n%s\nsecond:\n%s", name, got, again)
			}
			path := filepath.Join("testdata", "examples", name+".txt")
			if *updateExamples {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s output diverged from %s.\ngot:\n%s\nwant:\n%s", name, path, got, want)
			}
		})
	}
}
