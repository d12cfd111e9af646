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
// Each figure prints its virtual-time series followed by the host-side
// cost of regenerating it (wall-clock, allocations), so simulator
// performance is visible beside the numbers it simulates.
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
	"nephele/internal/vclock"
)

// traceSink, when non-nil, collects the clone-pipeline span tree of the
// figures that support tracing (currently fig 4's xs_clone curve).
var traceSink *obs.Trace

func main() {
	// order is the sequence `-fig all` runs; the -fig help text and the
	// unknown-figure error both list it.
	order := []string{"4", "5", "6", "7", "8", "9", "10", "11", "mp", "lazy", "sandbox", "cluster"}
	figureNames := strings.Join(order, ", ") + " or all"
	figFlag := flag.String("fig", "all", "figure to regenerate: "+figureNames)
	quick := flag.Bool("quick", false, "reduced scale for a fast smoke run")
	csvDir := flag.String("csv", "", "also write one CSV per series into this directory (for plotting)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected figures to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the last figure) to this file")
	traceFile := flag.String("trace", "", "record clone-pipeline spans (figs 4 and lazy) and write Chrome-trace JSON to this file")
	flag.Parse()

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

	runners := map[string]func(bool) (*bench.Figure, error){
		"4":       runFig4,
		"5":       runFig5,
		"6":       runFig6,
		"7":       runFig7,
		"8":       runFig8,
		"9":       runFig9,
		"10":      runFig10,
		"11":      runFig11,
		"mp":      runMultiParent,
		"lazy":    runFigLazy,
		"sandbox": runSandbox,
		"cluster": runFigCluster,
	}

	var selected []string
	if *figFlag == "all" {
		selected = order
	} else if _, ok := runners[*figFlag]; ok {
		selected = []string{*figFlag}
	} else {
		fmt.Fprintf(os.Stderr, "unknown figure %q (want %s)\n", *figFlag, figureNames)
		os.Exit(2)
	}

	for _, id := range selected {
		var fig *bench.Figure
		wall, err := bench.MeasureWall(func() error {
			var err error
			fig, err = runners[id](*quick)
			return err
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fig%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(fig.String())
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, fig); err != nil {
				fmt.Fprintf(os.Stderr, "fig%s csv: %v\n", id, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(regenerated in %s)\n\n", wall)
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

func runFig4(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFig4()
	if quick {
		cfg.Instances, cfg.SampleEvery = 100, 25
	}
	cfg.Trace = traceSink
	return bench.Fig4(cfg)
}

func runFig5(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFig5()
	if quick {
		cfg.HypMemoryBytes, cfg.Dom0MemoryBytes, cfg.SampleEvery = 2<<30, 1<<30, 200
	}
	return bench.Fig5(cfg)
}

func runFig6(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFig6()
	if quick {
		cfg.SizesMB = []int{1, 4, 16, 64, 256, 1024}
	}
	return bench.Fig6(cfg)
}

func runMultiParent(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultMultiParent()
	if quick {
		cfg.Parents, cfg.Rounds = []int{1, 4}, 5
	}
	return bench.MultiParent(cfg)
}

func runFigLazy(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFigLazy()
	if quick {
		cfg.GuestMB, cfg.HotPercents = 16, []int{1, 10, 100}
	}
	cfg.Trace = traceSink
	return bench.FigLazy(cfg)
}

func runFigCluster(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFigCluster()
	if quick {
		cfg.Hosts = []int{2, 4}
		cfg.GuestMB = 16
	}
	return bench.FigCluster(cfg)
}

func runSandbox(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultSandbox()
	if quick {
		cfg.FleetSizes = []int{4, 16}
		cfg.MemoryMB, cfg.DirtyPages = 16, 1024
	}
	return bench.Sandbox(cfg)
}

func runFig7(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFig7()
	if quick {
		cfg.Repetitions, cfg.RequestsPerRun = 5, 20000
	}
	return bench.Fig7(cfg)
}

func runFig8(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFig8()
	if quick {
		cfg.KeyCounts = []int{0, 1, 10, 100, 1000, 10000, 100000}
	}
	return bench.Fig8(cfg)
}

func runFig9(quick bool) (*bench.Figure, error) {
	cfg := bench.DefaultFig9()
	if quick {
		cfg.Duration = 60 * vclock.Duration(time.Second)
	}
	return bench.Fig9(cfg)
}

func runFig10(bool) (*bench.Figure, error) { return bench.Fig10(bench.FaaSConfig{}) }

func runFig11(bool) (*bench.Figure, error) { return bench.Fig11(bench.FaaSConfig{}) }
