package bench

import (
	"fmt"
	"runtime"
	"time"
)

// WallStats is the host-side cost of executing a simulated run: real
// elapsed time and heap allocation volume. The figures themselves report
// virtual time; WallStats is what producing them costs, printed beside
// each figure. The gated ledger of host cost is benchmark/.
type WallStats struct {
	Elapsed time.Duration
	Allocs  uint64 // heap objects allocated while f ran
	Bytes   uint64 // bytes allocated while f ran
}

// MeasureWall runs f and captures its wall-clock duration and allocation
// counts. Allocation numbers come from runtime.MemStats deltas, so
// anything allocating concurrently is attributed too — acceptable for the
// one-run-at-a-time reporting this backs.
func MeasureWall(f func() error) (WallStats, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return WallStats{
		Elapsed: elapsed,
		Allocs:  after.Mallocs - before.Mallocs,
		Bytes:   after.TotalAlloc - before.TotalAlloc,
	}, err
}

func (w WallStats) String() string {
	return fmt.Sprintf("%v wall, %d allocs, %.1f MB allocated",
		w.Elapsed.Round(time.Millisecond), w.Allocs, float64(w.Bytes)/(1<<20))
}
