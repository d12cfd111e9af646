// Command benchdiff compares `go test -bench` output against the numbers
// recorded in BENCH_baseline.json and exits non-zero when a benchmark's
// wall-clock ns/op regresses beyond the threshold. It stands in for
// benchstat in CI, where only the standard toolchain is available.
//
// Usage:
//
//	go test -bench . | go run ./cmd/benchdiff -baseline BENCH_baseline.json
//	go test -bench . | go run ./cmd/benchdiff -update   # record new numbers
//	go run ./cmd/benchdiff -baseline BENCH_baseline.json bench.out
//
// Only benchmarks present in both the baseline and the input are compared;
// -update rewrites the baseline's "benchmarks" section from the input and
// leaves everything else (notes, seed numbers) untouched.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type record struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

type baseline struct {
	Note      string             `json:"note,omitempty"`
	Generated string             `json:"generated,omitempty"`
	Seed      map[string]float64 `json:"seed_ns_per_op,omitempty"`
	// PreShard preserves the single-mutex pool's numbers (the baseline
	// the sharding work is measured against); -update never touches it.
	PreShard   map[string]float64 `json:"pre_shard_ns_per_op,omitempty"`
	Benchmarks map[string]record  `json:"benchmarks"`
}

// series holds one column of `go test -bench` output: benchmark name →
// GOMAXPROCS → value.
type series map[string]map[int]float64

// benchName matches the first field of a result line, e.g.
//
//	BenchmarkSpaceClone/first-4MB-8   3   15516 ns/op   16576 B/op   4 allocs/op
//
// The trailing -N is the GOMAXPROCS suffix. It is stripped from the
// recorded name so baselines do not depend on the machine's core count,
// but kept aside: when the input holds the same benchmark at several -cpu
// values (go test -cpu 1,8), the per-benchmark parallel speedup is
// reported alongside the comparison.
var benchName = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?$`)

// parseBench reads benchmark lines, returning one record per stripped name
// (the lowest -cpu run, so numbers stay comparable with baselines recorded
// on any core count) plus every column by unit — "ns/op", "allocs/op" and
// whatever the benchmark reported itself (b.ReportMetric, e.g.
// "restore-ms") — for the speedup reports. When the input holds the same
// benchmark several times at the same -cpu value (go test -count N), the
// MINIMUM of each column wins: on a shared runner the minimum of a few
// repetitions is the least load-contaminated sample, which is what makes a
// tight regression threshold usable there at all (a column on the virtual
// clock repeats exactly, so the minimum is the value).
func parseBench(r io.Reader) (map[string]record, map[string]series, error) {
	units := make(map[string]series)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 {
			continue
		}
		m := benchName.FindStringSubmatch(f[0])
		if m == nil {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		cpu := 1
		if m[2] != "" {
			cpu, _ = strconv.Atoi(m[2])
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				break
			}
			s := units[f[i+1]]
			if s == nil {
				s = make(series)
				units[f[i+1]] = s
			}
			if s[m[1]] == nil {
				s[m[1]] = make(map[int]float64)
			}
			if old, ok := s[m[1]][cpu]; !ok || v < old {
				s[m[1]][cpu] = v
			}
		}
	}
	out := make(map[string]record)
	for name, byCPU := range units["ns/op"] {
		low := -1
		for c := range byCPU {
			if low == -1 || c < low {
				low = c
			}
		}
		out[name] = record{NsPerOp: byCPU[low], AllocsPerOp: units["allocs/op"][name][low]}
	}
	return out, units, sc.Err()
}

// reportSpeedups prints ns/op ratios between the lowest and highest -cpu
// runs of every benchmark measured at more than one GOMAXPROCS (e.g.
// -cpu 1,8): >1 means the benchmark got faster with more cores.
func reportSpeedups(cpus series) {
	names := make([]string, 0, len(cpus))
	for name, byCPU := range cpus {
		if len(byCPU) > 1 {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return
	}
	sort.Strings(names)
	fmt.Println("parallel speedup (lowest vs highest -cpu):")
	for _, name := range names {
		byCPU := cpus[name]
		lo, hi := -1, -1
		for c := range byCPU {
			if lo == -1 || c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		fmt.Printf("%-55s cpu=%-2d %14.0f ns/op  cpu=%-2d %14.0f ns/op  %.2fx\n",
			name, lo, byCPU[lo], hi, byCPU[hi], byCPU[lo]/byCPU[hi])
	}
}

// ratioGate describes one paired-benchmark speedup: every benchmark whose
// name holds den is paired with the one that holds num in its place, and
// the speedup is num's value over den's in the unit column.
type ratioGate struct {
	what     string // the speedup's name, in the heading and the failure line
	unit     string // the compared column
	num, den string // e.g. "mode=cold" over "mode=warm"
}

// The three gated speedups. The cached-restore one compares the exact
// virtual restore time the benchmark reports, not wall ns/op: the model's
// cold/warm ratio is what the gate protects, and since both paths pass
// pages by reference the simulator's own wall times are within 2x of each
// other however the model fares.
var (
	schedGate = ratioGate{"affinity speedup", "ns/op", "sched=fixed", "sched=affinity"}
	warmGate  = ratioGate{"cached-restore speedup", "restore-ms", "mode=cold", "mode=warm"}
	xferGate  = ratioGate{"remote-clone dedup speedup", "ns/op", "xfer=cold", "xfer=warm"}
)

// reportRatios prints the gate's speedup for every pair at every
// GOMAXPROCS both sides were measured at. The return value is the best
// speedup observed at any pair's highest common cpu count — the number the
// gate's -*-min flag checks — or zero when the input holds no such pairs.
func reportRatios(s series, g ratioGate) float64 {
	var names []string
	for name := range s {
		if strings.Contains(name, g.den) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	best := 0.0
	printed := false
	for _, name := range names {
		den := s[name]
		num, ok := s[strings.Replace(name, g.den, g.num, 1)]
		if !ok {
			continue
		}
		var common []int
		for c := range den {
			if _, ok := num[c]; ok {
				common = append(common, c)
			}
		}
		if len(common) == 0 {
			continue
		}
		sort.Ints(common)
		if !printed {
			fmt.Printf("%s (%s %s over %s %s):\n", g.what, g.num, g.unit, g.den, g.unit)
			printed = true
		}
		// Drop the varying token and the separator before it from the label.
		at := strings.Index(name, g.den)
		label := name[:at-1] + name[at+len(g.den):]
		for _, c := range common {
			fmt.Printf("%-55s cpu=%-2d %s %14s  %s %14s  %.2fx\n", label, c,
				g.num, strconv.FormatFloat(num[c], 'f', -1, 64),
				g.den, strconv.FormatFloat(den[c], 'f', -1, 64), num[c]/den[c])
		}
		hi := common[len(common)-1]
		if r := num[hi] / den[hi]; r > best {
			best = r
		}
	}
	return best
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "baseline file to compare against / update")
	threshold := flag.Float64("threshold", 0.20, "relative ns/op regression that fails the run (0.20 = +20%)")
	update := flag.Bool("update", false, "rewrite the baseline's benchmark numbers from the input instead of comparing")
	schedMin := flag.Float64("sched-min", 0, "minimum affinity speedup (best sched=fixed / sched=affinity pair at its highest -cpu); 0 disables the gate")
	warmMin := flag.Float64("warm-min", 0, "minimum cached-restore speedup in virtual restore-ms (best mode=cold / mode=warm pair at its highest -cpu); 0 disables the gate")
	xferMin := flag.Float64("xfer-min", 0, "minimum remote-clone dedup speedup (best xfer=cold / xfer=warm pair at its highest -cpu); 0 disables the gate")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	got, units, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines in input")
		os.Exit(2)
	}

	var base baseline
	if raw, err := os.ReadFile(*baselinePath); err == nil {
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *baselinePath, err)
			os.Exit(2)
		}
	} else if !*update {
		fmt.Fprintf(os.Stderr, "benchdiff: %v (run with -update to create)\n", err)
		os.Exit(2)
	}

	if *update {
		if base.Benchmarks == nil {
			base.Benchmarks = make(map[string]record)
		}
		for name, rec := range got {
			base.Benchmarks[name] = rec
		}
		// Not MarshalIndent: it escapes the note's '>' and '<' as \u003e.
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&base); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baselinePath, out.Bytes(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: recorded %d benchmarks into %s\n", len(got), *baselinePath)
		return
	}

	names := make([]string, 0, len(got))
	for name := range got {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmarks in common with the baseline")
		os.Exit(2)
	}

	regressions := 0
	for _, name := range names {
		b, g := base.Benchmarks[name], got[name]
		delta := (g.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := "ok"
		if delta > *threshold {
			status = "REGRESSION"
			regressions++
		}
		allocs := ""
		// Allocation gate: compared only when both sides recorded allocs.
		// The relative threshold plus a +2 absolute grace keeps tiny counts
		// (1-4 allocs/op, where one alloc is +25%) from false-positiving,
		// while still catching a hot path growing per-op garbage — the
		// observability layer's disabled-sink contract.
		if b.AllocsPerOp > 0 && g.AllocsPerOp > 0 {
			allocs = fmt.Sprintf("  %6.0f -> %6.0f allocs/op", b.AllocsPerOp, g.AllocsPerOp)
			if g.AllocsPerOp > b.AllocsPerOp*(1+*threshold)+2 {
				status = "ALLOC REGRESSION"
				regressions++
			}
		}
		fmt.Printf("%-55s %14.0f -> %14.0f ns/op  %+6.1f%%%s  %s\n", name, b.NsPerOp, g.NsPerOp, delta*100, allocs, status)
	}
	reportSpeedups(units["ns/op"])
	for _, g := range []struct {
		gate ratioGate
		min  float64
	}{{schedGate, *schedMin}, {warmGate, *warmMin}, {xferGate, *xferMin}} {
		best := reportRatios(units[g.gate.unit], g.gate)
		if g.min > 0 && best < g.min {
			fmt.Fprintf(os.Stderr, "benchdiff: best %s %.2fx below required %.2fx\n", g.gate.what, best, g.min)
			os.Exit(1)
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d of %d benchmarks regressed more than %.0f%%\n",
			regressions, len(names), *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: %d benchmarks within %.0f%% of baseline\n", len(names), *threshold*100)
}
