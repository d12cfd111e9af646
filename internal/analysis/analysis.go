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
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check over a single package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Suppress is the escape-hatch comment token (e.g.
	// "nephele:nondeterministic-ok"): a diagnostic is dropped when its line, or
	// the line immediately above it, carries a line comment beginning
	// with "//" and the token. A waiver that drops nothing is itself a
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
// escape-hatch comment silenced, sorted by position. Every waiver of a run
// analyzer that silenced nothing is reported as a finding of that
// analyzer, at the waiver.
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
		if !w.used {
			findings = append(findings, Diagnostic{
				Analyzer: w.a.Name,
				Pos:      w.pos,
				Message:  fmt.Sprintf("waiver //%s silences no finding on its line or the next", w.a.Suppress),
			})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}

// waiver is a line comment beginning with an analyzer's Suppress token.
type waiver struct {
	a    *Analyzer
	pos  token.Position
	used bool // it silenced a diagnostic
}

// waivers indexes a package's waivers by file and line so escape-hatch
// lookups are O(1) per diagnostic.
type waivers struct {
	all    []*waiver
	byLine map[string]map[int][]*waiver
}

func collectWaivers(pkg *Package, analyzers []*Analyzer) *waivers {
	ws := &waivers{byLine: make(map[string]map[int][]*waiver)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, a := range analyzers {
					if a.Suppress == "" || !strings.HasPrefix(c.Text, "//"+a.Suppress) {
						continue
					}
					w := &waiver{a: a, pos: pkg.Fset.Position(c.Pos())}
					m := ws.byLine[w.pos.Filename]
					if m == nil {
						m = make(map[int][]*waiver)
						ws.byLine[w.pos.Filename] = m
					}
					m[w.pos.Line] = append(m[w.pos.Line], w)
					ws.all = append(ws.all, w)
				}
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
		for _, w := range ws.byLine[pos.Filename][line] {
			if w.a == a {
				w.used = true
				found = true
			}
		}
	}
	return found
}
