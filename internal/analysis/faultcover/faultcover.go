// Package faultcover checks the fault-point registry invariants that keep
// the fault-matrix suite honest (DESIGN.md §8): every named fault point in
// `internal/fault` must be
//
//   - unique — two Point* constants with the same string literal would
//     make Registry.Inject ambiguous;
//   - enumerated — each Point* constant appears in at least one *Points
//     list function, so matrix tests that iterate the lists cannot
//     silently skip a point;
//   - named at check sites — passing a raw string literal to
//     Registry.Check bypasses the registry's vocabulary and cannot be
//     covered by any list.
//
// Inside the fault package the analyzer reports duplicates and unlisted
// points; in every package it reports raw-literal Check calls. It also
// exports facts (point declarations, list membership, non-test uses) that
// the tree-level drift check — faultcover.Collect + (*TreeFacts).Verify,
// run by cmd/nephele-lint and TestTreeIsClean — aggregates to prove the
// lists cover exactly the points in the tree and that every point is
// exercised by at least one fault-matrix test. The parse-only ScanTree
// builds the same TreeFacts without type-checking, for the fast unit test
// in internal/fault.
//
// Waive a finding with //nephele:faultcover-ok and a justification.
package faultcover

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"nephele/internal/analysis"
)

// Analyzer is the fault-point coverage pass.
var Analyzer = &analysis.Analyzer{
	Name:     "faultcover",
	Doc:      "fault-point literals must be unique, enumerated in a *Points list, and named (never raw) at Registry.Check sites",
	Suppress: "nephele:faultcover-ok",
	Run:      run,
}

// FaultPkgs are the import paths treated as the fault-point registry
// package. Tests override this to point at fixture trees.
var FaultPkgs = []string{"nephele/internal/fault"}

func isFaultPkg(path string) bool {
	for _, p := range FaultPkgs {
		if path == p {
			return true
		}
	}
	return false
}

// Fact keys exported by this analyzer.
const (
	// FactPoint declares a fault-point constant; value is "Name=literal".
	FactPoint = "point"
	// FactListed records list membership; value is "ListFunc:PointName".
	FactListed = "listed"
	// FactUse records a non-test reference to a point constant outside the
	// fault package; value is the constant name.
	FactUse = "use"
)

func run(pass *analysis.Pass) error {
	if isFaultPkg(pass.Pkg.Path()) {
		declSide(pass)
	} else {
		useSide(pass)
	}
	checkSites(pass)
	return nil
}

// declSide enforces the registry-package invariants: unique literals and
// every point enumerated by some *Points list.
func declSide(pass *analysis.Pass) {
	type point struct {
		name  string
		value string
		pos   token.Pos
	}
	var points []point
	byValue := make(map[string]string) // literal -> first const name
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Point") {
						continue
					}
					c, ok := pass.TypesInfo.Defs[name].(*types.Const)
					if !ok || c.Val().Kind() != constant.String {
						continue
					}
					val := constant.StringVal(c.Val())
					points = append(points, point{name.Name, val, name.Pos()})
					pass.ExportFact(name.Pos(), FactPoint, name.Name+"="+val)
					if first, dup := byValue[val]; dup {
						pass.Reportf(name.Pos(), "duplicate fault-point literal %q: %s and %s name the same point, making Inject ambiguous", val, first, name.Name)
					} else {
						byValue[val] = name.Name
					}
				}
			}
		}
	}

	listed := make(map[string]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !strings.HasSuffix(fd.Name.Name, "Points") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || !strings.HasPrefix(id.Name, "Point") {
					return true
				}
				if c, ok := pass.TypesInfo.Uses[id].(*types.Const); ok && c.Pkg() == pass.Pkg {
					listed[id.Name] = true
					pass.ExportFact(id.Pos(), FactListed, fd.Name.Name+":"+id.Name)
				}
				return true
			})
		}
	}

	for _, p := range points {
		if !listed[p.name] {
			pass.Reportf(p.pos, "fault point %s (%q) is not enumerated in any *Points list; matrix tests that iterate the lists will never arm it", p.name, p.value)
		}
	}
}

// useSide exports a fact for every reference to a fault-point constant in
// non-test code, so the tree-level drift check can prove each point is
// actually consulted somewhere.
func useSide(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || !strings.HasPrefix(id.Name, "Point") {
				return true
			}
			c, ok := pass.TypesInfo.Uses[id].(*types.Const)
			if !ok || c.Pkg() == nil || !isFaultPkg(c.Pkg().Path()) {
				return true
			}
			pass.ExportFact(id.Pos(), FactUse, id.Name)
			return true
		})
	}
}

// checkSites flags raw string literals handed to (*fault.Registry).Check —
// an unnamed point no list can enumerate.
func checkSites(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Check" {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || !isFaultPkg(fn.Pkg().Path()) {
				return true
			}
			if lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				pass.Reportf(lit.Pos(), "raw fault-point literal %s passed to Registry.Check: declare a fault.Point* constant and enumerate it in a *Points list", lit.Value)
			}
			return true
		})
	}
}
