package main

import (
	"strings"
	"testing"
)

// TestParseBenchMinOfRepetitions: with -count N the same benchmark appears
// several times; the recorded ns/op must be the minimum repetition, and a
// later slower repetition must not displace an earlier faster one.
func TestParseBenchMinOfRepetitions(t *testing.T) {
	in := strings.NewReader(`
BenchmarkFoo/a=1   	  20	  150000 ns/op	  14 allocs/op
BenchmarkFoo/a=1   	  20	  120000 ns/op	  14 allocs/op
BenchmarkFoo/a=1   	  20	  180000 ns/op	  14 allocs/op
`)
	got, units, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	cpus := units["ns/op"]
	rec, ok := got["BenchmarkFoo/a=1"]
	if !ok {
		t.Fatalf("benchmark missing: %v", got)
	}
	if rec.NsPerOp != 120000 {
		t.Fatalf("ns/op = %v, want the minimum repetition 120000", rec.NsPerOp)
	}
	if rec.AllocsPerOp != 14 {
		t.Fatalf("allocs/op = %v, want 14", rec.AllocsPerOp)
	}
	if cpus["BenchmarkFoo/a=1"][1] != 120000 {
		t.Fatalf("per-cpu map = %v, want the minimum", cpus["BenchmarkFoo/a=1"])
	}
}

// TestParseBenchLowestCPU: under -cpu 2,8 the -N suffix is stripped and the
// lowest-cpu run is what lands in the comparison record, while the per-cpu
// map keeps both for the speedup reports — including min-of-count per cpu.
func TestParseBenchLowestCPU(t *testing.T) {
	in := strings.NewReader(`
BenchmarkBar/sched=affinity-2	 3	 40272000 ns/op	 326 allocs/op
BenchmarkBar/sched=affinity-8	 3	 16360500 ns/op	 326 allocs/op
BenchmarkBar/sched=affinity-8	 3	 16360500 ns/op	 326 allocs/op
`)
	got, units, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	rec := got["BenchmarkBar/sched=affinity"]
	if rec.NsPerOp != 40272000 {
		t.Fatalf("ns/op = %v, want the cpu=2 run", rec.NsPerOp)
	}
	byCPU := units["ns/op"]["BenchmarkBar/sched=affinity"]
	if byCPU[2] != 40272000 || byCPU[8] != 16360500 {
		t.Fatalf("per-cpu map = %v", byCPU)
	}
}

// TestParseBenchIgnoresCustomMetrics: a wall-ns/op custom metric line from
// b.ReportMetric shares the benchmark's result line; only the real ` ns/op`
// column may be parsed, and non-benchmark chatter is skipped.
func TestParseBenchIgnoresCustomMetrics(t *testing.T) {
	in := strings.NewReader(`
goos: linux
BenchmarkQux/p=1	 3	 26428500 ns/op	 12000 wall-ns/op	 86 allocs/op
PASS
`)
	got, _, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := got["BenchmarkQux/p=1"]
	if !ok || rec.NsPerOp != 26428500 {
		t.Fatalf("got %v, want ns/op 26428500", got)
	}
	if rec.AllocsPerOp != 86 {
		t.Fatalf("allocs/op = %v, want 86", rec.AllocsPerOp)
	}
}

// TestReportRatios: cold/warm pairs yield the speedup at the highest
// common cpu count, in the gate's own column; unpaired names don't. The
// cached-restore gate reads the virtual restore-ms the benchmark reports,
// so wall ns/op moving the other way does not reach it.
func TestReportRatios(t *testing.T) {
	in := strings.NewReader(`
BenchmarkRemoteClone/xfer=cold   	  50	  24000000 ns/op
BenchmarkRemoteClone/xfer=warm   	  50	  16000000 ns/op
BenchmarkRemoteClone/xfer=cold-8 	  50	  20000000 ns/op
BenchmarkRemoteClone/xfer=warm-8 	  50	  10000000 ns/op
BenchmarkOther/xfer=warm         	  50	   1000000 ns/op
BenchmarkCachedRestore/mode=cold-2 	   3	   7000000 ns/op	      1374 restore-ms
BenchmarkCachedRestore/mode=warm-2 	   3	   7500000 ns/op	       134.1 restore-ms
BenchmarkCachedRestore/mode=warm-2 	   3	   4600000 ns/op	       134.1 restore-ms
`)
	_, units, err := parseBench(in)
	if err != nil {
		t.Fatal(err)
	}
	if best := reportRatios(units[xferGate.unit], xferGate); best != 2.0 {
		t.Fatalf("best xfer speedup = %v, want 2.0 (cpu=8 pair)", best)
	}
	if best, want := reportRatios(units[warmGate.unit], warmGate), 1374/134.1; best != want {
		t.Fatalf("best cached-restore speedup = %v, want %v (restore-ms, not ns/op)", best, want)
	}
	if best := reportRatios(units[schedGate.unit], schedGate); best != 0 {
		t.Fatalf("sched speedup = %v with no sched pairs in the input", best)
	}
}
