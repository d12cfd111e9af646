// Package bench contains the experiment drivers that regenerate every
// figure of the paper's evaluation (Figs. 4-11) plus the lazy, sandbox,
// cluster and multi-parent figures. Each driver builds a fresh simulated
// platform, runs the paper's exact workload through the real mechanisms,
// and returns the figure's series as (x, y) points plus a summary of the
// headline numbers. The cmd/nephele-bench binary prints them; the golden
// tests pin every figure's quick form.
package bench

import (
	"fmt"
	"strings"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// Def is one figure: its `nephele-bench -fig` name and its driver. Run
// regenerates the figure at paper scale, or at the reduced scale the
// golden files pin when quick is set; each driver states both scales
// inline. A nil tr means no tracing; only Fig. 4's clone curve and the
// lazy figure record spans into it.
type Def struct {
	Name string
	Run  func(quick bool, tr *obs.Trace) (*Figure, error)
}

// Figures is every figure, in `nephele-bench -fig all` order.
var Figures = []Def{
	{"4", fig4},
	{"5", fig5},
	{"6", fig6},
	{"7", fig7},
	{"8", fig8},
	{"9", fig9},
	{"10", fig10},
	{"11", fig11},
	{"mp", figMultiParent},
	{"lazy", figLazy},
	{"sandbox", figSandbox},
	{"cluster", figCluster},
}

// Point is one figure sample.
type Point struct {
	X float64
	Y float64
}

// Series is one figure line.
type Series struct {
	Name   string
	Points []Point
}

// Last returns the final point of the series.
func (s Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[len(s.Points)-1]
}

// First returns the first point.
func (s Series) First() Point {
	if len(s.Points) == 0 {
		return Point{}
	}
	return s.Points[0]
}

// Figure is the regenerated data of one paper figure. It holds virtual
// numbers only: what regenerating it costs the host is the CLI footer's
// and benchmark/'s to report.
type Figure struct {
	ID     string // "fig4" ... "fig11"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	// Summary holds the headline comparisons (paper-vs-measured lines
	// for EXPERIMENTS.md).
	Summary []string
}

// Render prints the figure as aligned text tables.
func (f *Figure) Render(w *strings.Builder) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(w, "   x-axis: %s | y-axis: %s\n", f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, "-- %s\n", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(w, "   %12.2f  %14.3f\n", p.X, p.Y)
		}
	}
	for _, line := range f.Summary {
		fmt.Fprintf(w, "## %s\n", line)
	}
}

// String renders the figure.
func (f *Figure) String() string {
	var b strings.Builder
	f.Render(&b)
	return b.String()
}

// SeriesByName finds a series.
func (f *Figure) SeriesByName(name string) (Series, bool) {
	for _, s := range f.Series {
		if s.Name == name {
			return s, true
		}
	}
	return Series{}, false
}

// ms converts virtual time to milliseconds.
func ms(d vclock.Duration) float64 { return d.Seconds() * 1e3 }

// meanMinMax computes mean and spread of a float slice.
func meanMinMax(xs []float64) (mean, min, max float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return mean / float64(len(xs)), min, max
}
