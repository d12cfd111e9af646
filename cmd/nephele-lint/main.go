// Command nephele-lint is a multichecker for the clone pipeline's
// concurrency, determinism, and lifecycle invariants. It runs seven
// analyzers (DESIGN.md §11, §16) over the module from source:
//
//	lockorder   — a pooled lock is never taken while a sibling is held
//	determinism — no wall clock / unseeded rand / map iteration in
//	              virtual-time packages
//	refleak     — ShareN/AllocN/AddSharerN paired with a release on every
//	              error path, releases tracked through same-package
//	              helper calls
//	spanend     — every started span is ended on every path
//	opctx       — operations thread the in-scope OpCtx instead of
//	              minting fresh meters/traces mid-operation
//	faultcover  — fault-point literals are unique, registered in the
//	              *Points lists, and consulted via named constants
//	hotalloc    — no heap allocations in //nephele:noalloc functions
//
// When the run covers the whole module, the faultcover facts are also
// checked tree-wide: every point listed, consulted by non-test code, and
// referenced by at least one test.
//
// Usage:
//
//	go run ./cmd/nephele-lint ./...
//	go run ./cmd/nephele-lint -only refleak,hotalloc ./internal/mem
//	go run ./cmd/nephele-lint -json ./...
//
// Findings print as `path:line:col: analyzer: message` with paths
// relative to the module root — the shape .github/nephele-lint-problem-
// matcher.json turns into GitHub annotations — sorted by position across
// the whole run so output is diff-stable. -json emits the same findings
// as a JSON array instead. Exit status is 1 if any finding survives the
// //nephele:*-ok escape hatches, 0 otherwise. -v also prints a
// per-package summary of waived findings so annotation drift is visible
// in CI logs.
package main

import (
	"encoding/json"
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
	"nephele/internal/analysis/faultcover"
	"nephele/internal/analysis/hotalloc"
	"nephele/internal/analysis/lockorder"
	"nephele/internal/analysis/opctx"
	"nephele/internal/analysis/refleak"
	"nephele/internal/analysis/spanend"
)

var all = []*analysis.Analyzer{
	lockorder.Analyzer,
	determinism.Analyzer,
	refleak.Analyzer,
	spanend.Analyzer,
	opctx.Analyzer,
	faultcover.Analyzer,
	hotalloc.Analyzer,
}

// jsonFinding is one finding in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	verbose := flag.Bool("v", false, "also report suppressed findings")
	only := flag.String("only", "", "comma-separated subset of analyzers to run")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: nephele-lint [-v] [-json] [-only a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := all
	if *only != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "nephele-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}
	runsFaultcover := false
	for _, a := range analyzers {
		if a == faultcover.Analyzer {
			runsFaultcover = true
		}
	}

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
	var facts []analysis.Fact
	faultDirAnalyzed := false
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
		res, err := analysis.RunAll(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nephele-lint:", err)
			exit = 2
			continue
		}
		findings = append(findings, res.Findings...)
		facts = append(facts, res.Facts...)
		for _, fp := range faultcover.FaultPkgs {
			if pkg.Path == fp {
				faultDirAnalyzed = true
			}
		}
		if *verbose && len(res.Suppressed) > 0 {
			fmt.Fprintf(os.Stderr, "# %s: %d finding(s) waived by annotation\n", pkg.Path, len(res.Suppressed))
			for _, d := range res.Suppressed {
				fmt.Fprintf(os.Stderr, "#   %s\n", d)
			}
		}
	}

	// Tree-wide fault-registry verification: only meaningful when the run
	// included the fault package itself, so a single-package invocation
	// does not fail on invisible points.
	if runsFaultcover && faultDirAnalyzed {
		tf := faultcover.Collect(facts)
		if err := tf.AddTestRefs(loader.ModuleDir); err != nil {
			fmt.Fprintln(os.Stderr, "nephele-lint:", err)
			exit = 2
		} else {
			for _, v := range tf.Verify() {
				findings = append(findings, analysis.Diagnostic{
					Analyzer: faultcover.Analyzer.Name,
					Message:  "registry: " + v,
				})
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
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, d := range findings {
			out = append(out, jsonFinding{
				File:     relPath(d.Pos.Filename),
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "nephele-lint:", err)
			exit = 2
		}
	} else {
		for _, d := range findings {
			d.Pos.Filename = relPath(d.Pos.Filename)
			fmt.Println(d)
		}
	}
	os.Exit(exit)
}
