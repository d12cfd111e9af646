// Package analysistest runs an analyzer over a fixture package and checks
// its diagnostics against // want "regexp" comments, mirroring
// golang.org/x/tools/go/analysis/analysistest. Fixture packages live under
// the analyzer's testdata/ directory (which go build ignores), so they can
// contain intentionally-broken code: the seeded violations that prove each
// analyzer actually fires.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"nephele/internal/analysis"
)

// wantRE extracts the expectation literal from a comment: the token `want`
// followed by one Go string literal (interpreted or raw) holding a regexp.
var wantRE = regexp.MustCompile("want\\s+(\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the fixture package in dir, applies the analyzer, and reports
// as test errors any diagnostic without a matching want comment on its
// line and any want comment left unmatched. Escape-hatch-suppressed
// diagnostics count as absent, so fixtures exercise the suppression path
// simply by annotating a violation and omitting the want; a waiver that
// silences nothing is a diagnostic no want matches, so it fails the test.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s: bad want literal %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{file: filepath.Base(pos.Filename), line: pos.Line, re: re})
			}
		}
	}

	findings, err := analysis.Run(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	for _, d := range findings {
		if w := match(wants, d.Pos, d.Message); w == nil {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}

func match(wants []*expectation, pos token.Position, msg string) *expectation {
	for _, w := range wants {
		if !w.matched && w.file == filepath.Base(pos.Filename) && w.line == pos.Line && w.re.MatchString(msg) {
			w.matched = true
			return w
		}
	}
	return nil
}
