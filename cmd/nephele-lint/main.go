// Command nephele-lint is a multichecker for the clone pipeline's
// determinism, context and allocation invariants. It runs three analyzers
// (DESIGN.md §11, §16) over the module from source:
//
//	determinism — no wall clock / unseeded rand / map iteration in
//	              virtual-time packages
//	opctx       — operations thread the in-scope OpCtx instead of
//	              minting fresh meters/traces mid-operation
//	hotalloc    — no heap allocations in //nephele:noalloc functions
//
// The fault-point registry is not checked here: internal/fault's drift
// test (TestPointListsCoverTree) does that inside go test. Neither are
// error-path frame balance and span closure: internal/core's TestOOMSweep
// fails every frame allocation of each operation in turn and checks both.
// Nor is the one-goroutine contract (DESIGN.md §12.2): internal/analysis's
// TestNoConcurrencyPrimitives parses the tree for goroutines, channels,
// locks and atomics.
//
// Usage:
//
//	go run ./cmd/nephele-lint ./...
//	go run ./cmd/nephele-lint -v ./internal/mem
//
// Findings print as `path:line:col: analyzer: message` with paths
// relative to the module root — the shape .github/nephele-lint-problem-
// matcher.json turns into GitHub annotations — sorted by position across
// the whole run so output is diff-stable. A waiver that silences nothing
// is a finding too. Exit status is 1 if any finding survives the
// //nephele:*-ok escape hatches, 0 otherwise. -v also prints a
// per-package summary of waived findings so annotation drift is visible
// in CI logs.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"nephele/internal/analysis"
	"nephele/internal/analysis/determinism"
	"nephele/internal/analysis/hotalloc"
	"nephele/internal/analysis/opctx"
)

var all = []*analysis.Analyzer{
	determinism.Analyzer,
	opctx.Analyzer,
	hotalloc.Analyzer,
}

func main() {
	verbose := flag.Bool("v", false, "also report suppressed findings")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nephele-lint [-v] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "nephele-lint:", err)
		os.Exit(2)
	}

	var dirs []string
	seen := make(map[string]bool)
	for _, pat := range patterns {
		var expanded []string
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := rest
			if root == "." || root == "" {
				root = loader.ModuleDir
			}
			expanded, err = analysis.PackageDirs(root)
			if err != nil {
				fmt.Fprintln(os.Stderr, "nephele-lint:", err)
				os.Exit(2)
			}
		} else {
			expanded = []string{pat}
		}
		for _, d := range expanded {
			abs, err := filepath.Abs(d)
			if err == nil && !seen[abs] {
				seen[abs] = true
				dirs = append(dirs, abs)
			}
		}
	}

	// relPath prints module-relative paths so the problem matcher's
	// annotations resolve inside the checkout regardless of runner layout.
	relPath := func(p string) string {
		if rel, err := filepath.Rel(loader.ModuleDir, p); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
		return p
	}

	exit := 0
	var findings []analysis.Diagnostic
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				continue
			}
			fmt.Fprintln(os.Stderr, "nephele-lint:", err)
			exit = 2
			continue
		}
		found, suppressed, err := analysis.Run(pkg, all)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nephele-lint:", err)
			exit = 2
			continue
		}
		findings = append(findings, found...)
		if *verbose && len(suppressed) > 0 {
			fmt.Fprintf(os.Stderr, "# %s: %d finding(s) waived by annotation\n", pkg.Path, len(suppressed))
			for _, d := range suppressed {
				fmt.Fprintf(os.Stderr, "#   %s\n", d)
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if len(findings) > 0 && exit == 0 {
		exit = 1
	}
	for _, d := range findings {
		d.Pos.Filename = relPath(d.Pos.Filename)
		fmt.Println(d)
	}
	os.Exit(exit)
}
