// Command nephele-bench regenerates the paper's evaluation figures on the
// simulated platform and prints their series and headline summaries.
//
// Usage:
//
//	nephele-bench -fig 4           # one figure at paper scale
//	nephele-bench -fig lazy        # eager vs lazy CLONEOP latency
//	nephele-bench -fig all -quick  # every figure at reduced scale
//	nephele-bench -fig 6 -cpuprofile cpu.prof -memprofile mem.prof
//	nephele-bench -fig 4 -trace out.json  # Chrome-trace of the clone spans
//
// Each figure prints its virtual-time series followed by a footer with the
// host-side cost of regenerating it (wall-clock, allocations), so
// simulator performance is visible beside the numbers it simulates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nephele/internal/bench"
	"nephele/internal/obs"
)

func main() {
	names := make([]string, len(bench.Figures))
	for i, def := range bench.Figures {
		names[i] = def.Name
	}
	figureNames := strings.Join(names, ", ") + " or all"
	figFlag := flag.String("fig", "all", "figure to regenerate: "+figureNames)
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	csvDir := flag.String("csv", "", "also write one CSV per series into this directory (for plotting)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected figures to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the last figure) to this file")
	traceFile := flag.String("trace", "", "record clone-pipeline spans (figs 4 and lazy) and write Chrome-trace JSON to this file")
	flag.Parse()

	// traceSink, when non-nil, collects the clone-pipeline span trees of
	// the figures that record them (fig 4's xs_clone curve and lazy).
	var traceSink *obs.Trace
	if *traceFile != "" {
		traceSink = obs.NewTrace()
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	selected := bench.Figures
	if *figFlag != "all" {
		selected = nil
		for _, def := range bench.Figures {
			if def.Name == *figFlag {
				selected = []bench.Def{def}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want %s)\n", *figFlag, figureNames)
			os.Exit(2)
		}
	}

	for _, def := range selected {
		var fig *bench.Figure
		cost, err := hostCost(func() error {
			var err error
			fig, err = def.Run(*quick, traceSink)
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig%s failed: %v\n", def.Name, err)
			os.Exit(1)
		}
		fmt.Print(fig.String())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, fig); err != nil {
				fmt.Fprintf(os.Stderr, "fig%s csv: %v\n", def.Name, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(regenerated in %s)\n\n", cost)
	}

	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := traceSink.WriteChrome(f); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(traceSink.Summary())
		fmt.Printf("(%d spans written to %s)\n\n", traceSink.Len(), *traceFile)
		// The observed platform's metrics registry accumulated beside the
		// spans; dump the JSON snapshot (the expvar payload) next to the
		// trace and print the text table.
		if reg := traceSink.Metrics(); reg != nil {
			mpath := strings.TrimSuffix(*traceFile, filepath.Ext(*traceFile)) + "-metrics.json"
			blob, err := json.MarshalIndent(reg.Var()(), "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace: metrics: %v\n", err)
				os.Exit(1)
			}
			if err := os.WriteFile(mpath, append(blob, '\n'), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "trace: metrics: %v\n", err)
				os.Exit(1)
			}
			fmt.Print(reg.Summary())
			fmt.Printf("(metrics snapshot written to %s)\n\n", mpath)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

// writeCSVs emits one "<fig>-<series>.csv" file per series, x,y per line —
// directly loadable by gnuplot (the paper's plotting tool) or any
// spreadsheet.
func writeCSVs(dir string, fig *bench.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range fig.Series {
		name := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '-'
			}
		}, s.Name)
		var b strings.Builder
		fmt.Fprintf(&b, "# %s: %s | x: %s | y: %s\n", fig.ID, s.Name, fig.XLabel, fig.YLabel)
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%g,%g\n", pt.X, pt.Y)
		}
		path := filepath.Join(dir, fig.ID+"-"+name+".csv")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// hostCost runs f and reports what it cost the host: wall-clock time and
// heap allocation volume. The allocation numbers are runtime.MemStats
// deltas, so anything allocating concurrently is attributed too, which is
// acceptable for one figure at a time. The gated ledger of host cost is
// benchmark/.
func hostCost(f func() error) (string, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return fmt.Sprintf("%v wall, %d allocs, %.1f MB allocated", elapsed.Round(time.Millisecond),
		after.Mallocs-before.Mallocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20)), err
}
