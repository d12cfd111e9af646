package analysis_test

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"slices"
	"testing"

	"nephele/internal/analysis"
)

// TestWaivers pins the escape hatch: a line comment beginning with the
// token silences a finding on its own line or the next, a mention of the
// token inside a comment silences nothing, and a waiver that silences
// nothing is itself a finding.
func TestWaivers(t *testing.T) {
	dir := filepath.Join("testdata", "src", "waiver")
	loader, err := analysis.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	calls := &analysis.Analyzer{
		Name:     "calls",
		Suppress: "nephele:calls-ok",
		Run: func(pass *analysis.Pass) error {
			for _, f := range pass.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if c, ok := n.(*ast.CallExpr); ok {
						pass.Reportf(c.Pos(), "call")
					}
					return true
				})
			}
			return nil
		},
	}
	findings, suppressed, err := analysis.Run(pkg, []*analysis.Analyzer{calls})
	if err != nil {
		t.Fatal(err)
	}
	lines := func(ds []analysis.Diagnostic) []string {
		var out []string
		for _, d := range ds {
			out = append(out, fmt.Sprintf("%d: %s", d.Pos.Line, d.Message))
		}
		return out
	}
	if got, want := lines(suppressed), []string{"8: call", "10: call"}; !slices.Equal(got, want) {
		t.Errorf("suppressed = %q, want %q", got, want)
	}
	want := []string{"11: call", "12: waiver //nephele:calls-ok silences no finding on its line or the next", "15: call"}
	if got := lines(findings); !slices.Equal(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
}
