// Command benchmark is the repository's benchmark: five named workloads
// driven through the public core.Platform / cluster.Cluster / fuzz.Session
// API as a closed loop with one client goroutine, measured on both of the
// system's clocks. The untraced pass reports the end-to-end metrics; a
// separate traced pass times the benchmark's own calls into each layer's
// public functions and reads each layer's public counters, so every virtual
// and wall microsecond is charged to a module by name. See README.md.
//
//	go run ./benchmark                       every workload, both passes, one report
//	go run ./benchmark -workload NAME        one workload
//	go run ./benchmark -sets 2               self-agreement between complete sets
//	<command> --workload NAME --seed N --seconds S --trace 0|1
//	                                         the driver's form: one pass, result as the last line
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// commit may be set at link time (-X main.commit=...); otherwise the build's
// VCS stamp is used when there is one.
var commit string

// warmupRounds is how many rounds of each workload a pass runs and drops
// before it measures.
const warmupRounds = 2

// runSeconds is BENCHMARK.json's run_seconds: how long one pass measures one
// workload unless -seconds says otherwise.
const runSeconds = 10

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // -1: both passes; 0: untraced pass only; 1: traced pass only
	quick    bool
	sets     int
	jsonOut  string
	traceOut string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload by `name` (default: all five)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every page-touch pattern and of the fuzz campaign")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "timed seconds per workload and pass")
	fs.IntVar(&o.trace, "trace", -1, "0: untraced end-to-end pass only, 1: traced per-layer pass only; with -workload the result is also printed as one JSON object on the last line")
	fs.BoolVar(&o.quick, "quick", false, "one round per mode at 1/20 of the ops (smoke test)")
	fs.IntVar(&o.sets, "sets", 1, "run `N` complete untraced sets back to back and check that their medians agree within the bounds")
	fs.StringVar(&o.jsonOut, "json", "", "also write the report to `file` as JSON")
	fs.StringVar(&o.traceOut, "trace-out", "", "write one traced round per workload to `file` as Chrome trace-event JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.trace < -1 || o.trace > 1 || o.sets < 1 || o.seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	ws := workloads
	if o.workload != "" {
		w := workloadByName(o.workload)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", o.workload)
			return 2
		}
		ws = []*workload{w}
	}

	// One client goroutine drives the program; the program's own worker
	// pools size themselves by GOMAXPROCS, capped here so a large box does
	// not measure a different program than the 2-core reference.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	hdr := header{Seed: o.seed, GOMAXPROCS: procs, NProc: runtime.NumCPU(), Commit: buildCommit(),
		Go: runtime.Version(), Seconds: o.seconds, Quick: o.quick}
	hdr.print(stdout)

	if o.sets > 1 {
		return runSets(ws, o, hdr, stdout, stderr)
	}

	rounds := make(map[string][]*round)
	if o.trace != 1 {
		runPass(ws, o, false, o.seconds, rounds)
	}
	if o.trace != 0 {
		budget := o.seconds
		if o.trace == -1 {
			budget = o.seconds / 2
		}
		runPass(ws, o, true, budget, rounds)
	}
	rep := report{Header: hdr}
	for _, w := range ws {
		rep.Workloads = append(rep.Workloads, summarize(w, rounds[w.Name]))
	}
	rep.print(stdout, o.trace)
	if err := rep.write(o); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	if o.workload != "" && o.trace >= 0 {
		fmt.Fprintln(stdout, rep.Workloads[0].contractLine(o.trace))
	}
	return 0
}

// runPass runs one pass over the workloads, their rounds interleaved
// round-robin so a slow minute on a shared box lands on all of them. The
// untraced pass is plain rounds only. The traced pass opens with a probe
// round and then cycles plain, spanned and staged rounds: the plain ones are
// what the tracing overhead is measured against. A workload is done when
// its timed seconds reach the budget (and it has three plain rounds, or one
// full cycle); -quick stops after one round per mode.
//
// Each workload first runs warmupRounds rounds that are dropped: in a fresh
// process the first two rounds take up to 45 % longer than the rest, while
// the heap grows to the workload's size and its pages are faulted in.
func runPass(ws []*workload, o options, traced bool, budget float64, out map[string][]*round) {
	type state struct {
		warm  int
		n     int
		timed float64
		done  bool
	}
	st := make([]state, len(ws))
	kept := make(map[string]bool)
	for remaining := len(ws); remaining > 0; {
		for i, w := range ws {
			s := &st[i]
			if s.done {
				continue
			}
			if !o.quick && s.warm < warmupRounds {
				runRound(w, o.seed, false, modePlain)
				s.warm++
				continue
			}
			md := modePlain
			minRounds := 3
			if traced {
				md = tracedMode(s.n)
				minRounds = 4
			}
			r := runRound(w, o.seed, o.quick, md)
			r.TracedPass = traced
			// A staged round's spans are kept only for -trace-out, and only
			// the first round's: a recorder held across rounds enlarges the
			// heap the later rounds are collected against.
			if o.traceOut == "" || kept[w.Name] {
				r.rec = nil
			} else if r.rec != nil {
				kept[w.Name] = true
			}
			out[w.Name] = append(out[w.Name], r)
			s.n++
			s.timed += r.WallS
			cycleEnd := !traced || (s.n-1)%3 == 0
			if s.n >= minRounds && cycleEnd && (o.quick || s.timed >= budget) || r.WallS == 0 || s.n >= 1000 {
				s.done = true
				remaining--
			}
		}
	}
}

// tracedMode is the mode of a traced pass's n'th round: one probe round,
// then plain, spanned, staged in rotation.
func tracedMode(n int) mode {
	if n == 0 {
		return modeProbe
	}
	return [...]mode{modePlain, modeSpanned, modeStaged}[(n-1)%3]
}

// runRound executes one round of w on fresh platforms. Two collections
// first: one frees the previous round's platforms, the second empties the
// sync.Pools that kept some of their memory alive through the first, so every
// round starts from the same heap.
func runRound(w *workload, seed int64, quick bool, md mode) *round {
	runtime.GC()
	runtime.GC()
	e := newEnv(w, seed, quick, md)
	return e.result(w.run(e))
}

// runSets is the self-agreement mode: N complete untraced sets back to
// back; per workload and metric the spread between the sets' medians is set
// against the metric's bound, exact metrics must not differ at all.
func runSets(ws []*workload, o options, hdr header, stdout, stderr io.Writer) int {
	sets := make([][]*summary, o.sets)
	for i := range sets {
		rounds := make(map[string][]*round)
		runPass(ws, o, false, o.seconds, rounds)
		for _, w := range ws {
			sets[i] = append(sets[i], summarize(w, rounds[w.Name]))
		}
	}
	agree := true
	fmt.Fprintf(stdout, "self-agreement of %d sets: spread = (max - min) / min of the sets' medians\n", o.sets)
	var rows []agreement
	for wi, w := range ws {
		fmt.Fprintf(stdout, "== %s ==\n", w.Name)
		for _, s := range sets {
			if !s[wi].Correct {
				agree = false
				fmt.Fprintf(stdout, "  a set was incorrect: %s\n", strings.Join(s[wi].Problems, "; "))
			}
		}
		check := func(pick func(*summary) []stat) {
			for mi, st := range pick(sets[0][wi]) {
				lo, hi := st.Median, st.Median
				for _, s := range sets[1:] {
					m := pick(s[wi])[mi].Median
					lo, hi = min(lo, m), max(hi, m)
				}
				a := agreement{Workload: w.Name, Metric: st.Name, Bound: st.Bound}
				if st.Exact {
					a.Bound = w.Jitter
				}
				if lo != 0 {
					a.Spread = (hi - lo) / lo
				}
				a.OK = a.Spread <= a.Bound
				agree = agree && a.OK
				rows = append(rows, a)
				verdict := "ok"
				if !a.OK {
					verdict = "EXCEEDED"
				}
				fmt.Fprintf(stdout, "  %-22s spread %8.4f%%  bound %6.2f%%  %s\n", st.Name, a.Spread*100, a.Bound*100, verdict)
			}
		}
		check(func(s *summary) []stat { return s.EndToEnd })
		check(func(s *summary) []stat { return s.Exact })
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, map[string]any{"header": hdr, "sets": o.sets, "agreement": rows}); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !agree {
		fmt.Fprintln(stdout, "sets disagree beyond the bounds")
		return 1
	}
	fmt.Fprintln(stdout, "sets agree within the bounds")
	return 0
}

// agreement is one row of the -sets report.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Spread   float64 `json:"spread"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

func buildCommit() string {
	if commit != "" {
		return commit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
