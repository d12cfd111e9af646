// Package analysis is a minimal, dependency-free mirror of the
// golang.org/x/tools/go/analysis framework: an Analyzer inspects one
// type-checked package and reports Diagnostics. The container this repo is
// grown in has no network access to the module proxy, so rather than
// depending on x/tools the subset the nephele analyzers need (single-pass
// analyzers, suppression comments, analysistest-style fixtures) is
// implemented here on top of go/ast, go/types and go/importer alone. The
// API shape deliberately follows x/tools so the analyzers could be ported
// to real go/analysis Analyzers by swapping this import.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one static check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Suppress is the escape-hatch comment token (e.g.
	// "nephele:hotalloc-ok"): a diagnostic is dropped when its line, or the
	// line immediately above it, carries a line comment whose first word
	// is "//" and the token. A waiver that drops nothing is itself a
	// finding. Empty means no escape hatch.
	Suppress string
	// Run inspects the package and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one type-checked package through an Analyzer's Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to pkg and returns the diagnostics no
// escape-hatch comment silenced, sorted by position. Every waiver that
// silenced nothing, or whose token no analyzer in the run owns, is
// reported as a finding at the waiver.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var findings []Diagnostic
	waivers := collectWaivers(pkg, analyzers)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		for _, d := range pass.diags {
			if !waivers.silence(d.Pos, a) {
				findings = append(findings, d)
			}
		}
	}
	for _, w := range waivers.all {
		switch {
		case w.a == nil:
			findings = append(findings, Diagnostic{"waiver", w.pos, fmt.Sprintf("waiver //%s belongs to no analyzer", w.tok)})
		case !w.used:
			findings = append(findings, Diagnostic{w.a.Name, w.pos, fmt.Sprintf("waiver //%s silences no finding on its line or the next", w.tok)})
		}
	}
	slices.SortFunc(findings, func(x, y Diagnostic) int {
		return cmp.Or(cmp.Compare(x.Pos.Filename, y.Pos.Filename), cmp.Compare(x.Pos.Line, y.Pos.Line), cmp.Compare(x.Message, y.Message))
	})
	return findings, nil
}

// waiver is a line comment whose first word is "//nephele:<token>-ok".
type waiver struct {
	tok  string    // "nephele:<token>-ok"
	a    *Analyzer // the analyzer whose Suppress is tok; nil if none is
	pos  token.Position
	used bool // it silenced a diagnostic
}

// waivers indexes a package's waivers by file and line so escape-hatch
// lookups are O(1) per diagnostic.
type waivers struct {
	all    []*waiver
	byLine map[token.Position][]*waiver // keyed by file and line only
}

func collectWaivers(pkg *Package, analyzers []*Analyzer) *waivers {
	ws := &waivers{byLine: make(map[token.Position][]*waiver)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				tok, _, _ := strings.Cut(strings.TrimPrefix(c.Text, "//"), " ")
				if !strings.HasPrefix(c.Text, "//nephele:") || !strings.HasSuffix(tok, "-ok") {
					continue
				}
				w := &waiver{tok: tok, pos: pkg.Fset.Position(c.Pos())}
				for _, a := range analyzers {
					if a.Suppress == tok {
						w.a = a
					}
				}
				at := token.Position{Filename: w.pos.Filename, Line: w.pos.Line}
				ws.byLine[at] = append(ws.byLine[at], w)
				ws.all = append(ws.all, w)
			}
		}
	}
	return ws
}

// silence reports whether a waiver of a sits on the diagnostic's line or
// the line immediately above it, and marks every such waiver used.
func (ws *waivers) silence(pos token.Position, a *Analyzer) bool {
	found := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, w := range ws.byLine[token.Position{Filename: pos.Filename, Line: line}] {
			if w.a == a {
				w.used = true
				found = true
			}
		}
	}
	return found
}
