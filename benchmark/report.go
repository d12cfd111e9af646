package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// header records what a report ran with.
type header struct {
	Seed       int64   `json:"seed"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	Seconds    float64 `json:"seconds_per_pass"`
	Quick      bool    `json:"quick,omitempty"`
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "nephele benchmark: seed %d, GOMAXPROCS %d (nproc %d), commit %s, %s, %.3g timed s per workload and pass\n",
		h.Seed, h.GOMAXPROCS, h.NProc, h.Commit, h.Go, h.Seconds)
}

// report is one run of the benchmark over some workloads.
type report struct {
	Header    header     `json:"header"`
	Workloads []*summary `json:"workloads"`
}

func printStats(w io.Writer, title string, stats []stat, bounded, skipEmpty bool) {
	fmt.Fprintf(w, "  %s\n", title)
	for _, st := range stats {
		if st.N == 0 {
			if !skipEmpty {
				fmt.Fprintf(w, "    %-44s %-11s not measured\n", st.Name, st.Unit)
			}
			continue
		}
		line := fmt.Sprintf("    %-44s %-11s %14.6g  q1 %-12.6g q3 %-12.6g n=%d", st.Name, st.Unit, st.Median, st.Q1, st.Q3, st.N)
		switch {
		case bounded:
			line += fmt.Sprintf("  bound %g%%  spread %.2f%%", st.Bound*100, spreadOf(st)*100)
		case st.Exact:
			line += "  exact"
		}
		fmt.Fprintln(w, line)
	}
}

func spreadOf(st stat) float64 {
	if st.Median == 0 {
		return 0
	}
	return (st.Q3 - st.Q1) / st.Median
}

// print writes every metric by name with unit, median, quartiles and sample
// count per workload. trace selects the sections as the -trace flag does.
func (r *report) print(w io.Writer, trace int) {
	for _, s := range r.Workloads {
		var rounds []string
		for _, md := range modeNames {
			if n := s.Rounds[md]; n > 0 {
				rounds = append(rounds, fmt.Sprintf("%d %s", n, md))
			}
		}
		verdict := "correct"
		if !s.Correct {
			verdict = "INCORRECT"
		}
		fmt.Fprintf(w, "\n== %s == primary op: %s; rounds: %s; ops attempted %d, failed %d; %s\n",
			s.Workload, s.Primary, strings.Join(rounds, ", "), s.Attempted, s.Failed, verdict)
		if trace != 1 {
			printStats(w, "end-to-end, host clock (untraced rounds; median over rounds)", s.EndToEnd, true, false)
		}
		printStats(w, fmt.Sprintf("end-to-end, virtual clock (exact; tail is the round's %s)", s.Tail), s.Exact, false, false)
		if trace != 0 {
			printStats(w, "per layer (0 rounds = this workload does not exercise it)", s.Layers, false, true)
			if len(s.LayerTable) > 0 {
				fmt.Fprintln(w, "  layer table: self time of the benchmark's spans, one staged round")
				fmt.Fprintf(w, "    %-12s %14s %7s %14s %7s\n", "layer", "virt_self_ms", "%", "wall_self_ms", "%")
				for _, row := range s.LayerTable {
					fmt.Fprintf(w, "    %-12s %14.3f %6.1f%% %14.3f %6.1f%%\n", row.Layer, row.VirtMS, row.VirtPct, row.WallMS, row.WallPct)
				}
			}
			for _, d := range s.Dominance {
				fmt.Fprintf(w, "  dominance: %s\n", d)
			}
			if st := statOf(s.Layers, "obs.trace_overhead_pct"); st.N > 0 {
				fmt.Fprintf(w, "  tracing overhead: %+.1f%% timed wall, a cycle's spanned and staged rounds against its plain round (median of %d cycles)\n", st.Median, st.N)
			}
		}
		fmt.Fprintf(w, "  reference: %s\n", s.Reference)
		for _, p := range s.Problems {
			fmt.Fprintf(w, "  PROBLEM: %s\n", p)
		}
		for _, p := range s.Warnings {
			fmt.Fprintf(w, "  WARNING: %s\n", p)
		}
	}
}

// write produces the optional files: the machine-readable report and the
// Chrome trace of one staged round per workload.
func (r *report) write(o options) error {
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, r); err != nil {
			return err
		}
	}
	if o.traceOut == "" {
		return nil
	}
	names := make([]string, 0, len(r.Workloads))
	recs := make(map[string]*recorder)
	for _, s := range r.Workloads {
		names = append(names, s.Workload)
		recs[s.Workload] = s.rec
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	if err := writeChrome(f, names, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// contractLine renders the workload's result the way the driver reads it:
// one JSON object with the end-to-end metrics (trace 0) or every traced
// metric (trace 1), medians over the pass's rounds.
func (s *summary) contractLine(trace int) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	stats := s.EndToEnd
	if trace == 1 {
		stats = append(append([]stat(nil), s.Exact...), s.Layers...)
	}
	for _, st := range stats {
		metrics[st.Name] = value{Value: st.Median, Unit: st.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{s.Correct, s.Attempted, s.Failed, metrics})
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}, "error": %q}`, err)
	}
	return string(line)
}
