package fault_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"nephele/internal/fault"
)

// TestPointListsCoverTree is the registry drift check, and the only one:
// point literals are unique, the *Points lists enumerate exactly the points
// this package declares, non-test code consults every point and never
// hands Check a raw literal, and every point is reachable from a test
// (directly or through a list a test iterates). The scan only parses, so
// it runs un-skipped in the ordinary suite.
func TestPointListsCoverTree(t *testing.T) {
	reg := scan(t, filepath.Join("..", ".."), ".")
	if len(reg.points) == 0 {
		t.Fatal("tree scan found no fault points; the scanner is broken")
	}
	for _, v := range reg.verify() {
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
	for name, lit := range reg.points {
		if !enumerated[lit] {
			t.Errorf("fault point %s (%q) is missing from the compiled lists; update the lists map in this test if a new list was added", name, lit)
		}
	}
}

// TestScanReportsSeededDrift runs the scan over testdata/, a miniature
// tree with one violation of each kind seeded in, and requires exactly
// those findings. testdata/fault/points_drift_test.go names every list the
// way this file does; PointProbe is reachable only through it.
func TestScanReportsSeededDrift(t *testing.T) {
	got := scan(t, "testdata", filepath.Join("testdata", "fault")).verify()
	cases := []struct{ name, want string }{
		{"duplicate", `duplicate fault-point literal "fixture/dup": PointDupA and PointDupB name the same point`},
		{"unlisted", `fault point PointUnlisted ("fixture/unlisted") is not enumerated in any *Points list`},
		{"stale-list-entry", `*Points lists enumerate PointGhost, which is not a declared fault point`},
		{"unconsulted", `fault point PointUnused ("fixture/unused") is never consulted by non-test code`},
		{"untested", `fault point PointProbe ("fixture/probe") is not referenced by any test, directly or via a *Points list`},
		{"raw-check", `toolstack/restorecached.go:21: raw fault-point literal "fixture/raw" passed to Check: declare a fault.Point* constant`},
	}
	var want []string
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if !slices.Contains(got, c.want) {
				t.Errorf("missing finding %q in:\n%s", c.want, strings.Join(got, "\n"))
			}
		})
		want = append(want, c.want)
	}
	for _, v := range got {
		if !slices.Contains(want, v) {
			t.Errorf("unexpected finding %q", v)
		}
	}
}

// driftTest is this file's name. The test-reference scan skips the file
// of that name in the fault package: it names every *Points list, so
// counting it would mark every listed point as tested.
const driftTest = "points_drift_test.go"

// registry is the fault-point registry of one source tree, as parsed.
type registry struct {
	points   map[string]string   // Point* constant -> unquoted literal
	listed   map[string][]string // identifier -> the *Points lists naming it
	uses     map[string]bool     // points non-test code outside the fault package names
	testRefs map[string]bool     // Point* and *Points identifiers a test names
	problems []string            // duplicate literals and raw-literal Check calls
}

func scan(t *testing.T, root, faultDir string) *registry {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	faultDir, err = filepath.Abs(faultDir)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := scanTree(root, faultDir)
	if err != nil {
		t.Fatalf("scanning %s: %v", root, err)
	}
	return reg
}

// scanTree parses (never type-checks) every Go file under root, skipping
// testdata and dot or underscore directories. Declarations come from
// faultDir, uses from every other non-test file, test references from
// every _test.go but faultDir's driftTest. It keys on the Point* / *Points
// naming convention.
func scanTree(root, faultDir string) (*registry, error) {
	reg := &registry{
		points:   make(map[string]string),
		listed:   make(map[string][]string),
		uses:     make(map[string]bool),
		testRefs: make(map[string]bool),
	}
	byLiteral := make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		inFault := filepath.Dir(path) == faultDir
		switch {
		case strings.HasSuffix(path, "_test.go"):
			if !inFault || d.Name() != driftTest {
				reg.scanTestRefs(f)
			}
		case inFault:
			reg.scanDecls(f, byLiteral)
		default:
			rel, _ := filepath.Rel(root, path)
			reg.scanUses(fset, f, filepath.ToSlash(rel))
		}
		return nil
	})
	return reg, err
}

// scanDecls records one fault-package file's Point* string constants and
// *Points list membership.
func (reg *registry) scanDecls(f *ast.File, byLiteral map[string]string) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			if d.Tok != token.CONST {
				continue
			}
			for _, spec := range d.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Point") || i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					val, err := strconv.Unquote(lit.Value)
					if err != nil {
						continue
					}
					reg.points[name.Name] = val
					if first, dup := byLiteral[val]; dup {
						reg.problems = append(reg.problems, fmt.Sprintf("duplicate fault-point literal %q: %s and %s name the same point", val, first, name.Name))
					} else {
						byLiteral[val] = name.Name
					}
				}
			}
		case *ast.FuncDecl:
			if d.Body == nil || !strings.HasSuffix(d.Name.Name, "Points") {
				continue
			}
			ast.Inspect(d.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && strings.HasPrefix(id.Name, "Point") && !slices.Contains(reg.listed[id.Name], d.Name.Name) {
					reg.listed[id.Name] = append(reg.listed[id.Name], d.Name.Name)
				}
				return true
			})
		}
	}
}

// scanUses records the points a non-test file names as fault.Point*, and,
// when the file imports the fault package, reports a one-argument
// .Check("literal") call: a point no list can enumerate.
func (reg *registry) scanUses(fset *token.FileSet, f *ast.File, rel string) {
	importsFault := slices.ContainsFunc(f.Imports, func(s *ast.ImportSpec) bool {
		return s.Path.Value == `"nephele/internal/fault"`
	})
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "fault" && strings.HasPrefix(n.Sel.Name, "Point") {
				reg.uses[n.Sel.Name] = true
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !importsFault || !ok || sel.Sel.Name != "Check" || len(n.Args) != 1 {
				return true
			}
			if lit, ok := ast.Unparen(n.Args[0]).(*ast.BasicLit); ok && lit.Kind == token.STRING {
				reg.problems = append(reg.problems, fmt.Sprintf("%s:%d: raw fault-point literal %s passed to Check: declare a fault.Point* constant", rel, fset.Position(lit.Pos()).Line, lit.Value))
			}
		}
		return true
	})
}

func (reg *registry) scanTestRefs(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (strings.HasPrefix(id.Name, "Point") || strings.HasSuffix(id.Name, "Points")) {
			reg.testRefs[id.Name] = true
		}
		return true
	})
}

// verify returns the registry's violations, sorted, one line each: a
// duplicate literal, a raw-literal Check call, a point no list enumerates,
// no non-test code consults or no test reaches, and a list entry that
// names no declared point.
func (reg *registry) verify() []string {
	out := slices.Clone(reg.problems)
	for name, val := range reg.points {
		lists := reg.listed[name]
		if len(lists) == 0 {
			out = append(out, fmt.Sprintf("fault point %s (%q) is not enumerated in any *Points list", name, val))
		}
		if !reg.uses[name] {
			out = append(out, fmt.Sprintf("fault point %s (%q) is never consulted by non-test code", name, val))
		}
		if !reg.testRefs[name] && !slices.ContainsFunc(lists, func(l string) bool { return reg.testRefs[l] }) {
			out = append(out, fmt.Sprintf("fault point %s (%q) is not referenced by any test, directly or via a *Points list", name, val))
		}
	}
	for name := range reg.listed {
		if _, ok := reg.points[name]; !ok {
			out = append(out, fmt.Sprintf("*Points lists enumerate %s, which is not a declared fault point", name))
		}
	}
	sort.Strings(out)
	return out
}
