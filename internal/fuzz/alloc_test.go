package fuzz

import (
	"runtime"
	"testing"

	"nephele/internal/vclock"
)

// TestCloneIterateAllocs pins the host cost of a warm KFX iteration
// (Fig. 9): mutating an input, running it on the instrumented clone (two
// bookkeeping writes, the target's syscalls, their COW faults) and the
// clone_reset that undoes it allocate nothing. The only allocations left are
// the corpus's copy of an input it keeps and the growth of two slices that
// double: the corpus's entries, and the mutator's buffer when an input is
// longer than any before it. Before the mutator's buffer and the mem dirty
// bitmap an iteration cost 5 allocations.
func TestCloneIterateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	// sync.Pool caches per P and drops its caches when GOMAXPROCS
	// changes, so the pools warm up on the one P the count runs on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := NewSession(Config{Mode: ModeUnikraftClone, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meter := vclock.NewMeter(nil)
	iterate := func() {
		meter.Reset()
		if _, err := s.Iterate(meter); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		iterate() // the page pool, the dirty log and the mutator's buffer reach their size
	}
	const iters = 10000
	var before, after runtime.MemStats
	kept, grown := 0, 0
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		n, c, b := s.corpus.Len(), cap(s.corpus.entries), cap(s.mut.buf)
		iterate()
		kept += s.corpus.Len() - n
		if cap(s.corpus.entries) != c {
			grown++
		}
		if cap(s.mut.buf) != b {
			grown++
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(kept+grown) {
		t.Fatalf("%d warm iterations: %d allocs, want <= %d (%d inputs kept, %d slice growths)",
			iters, allocs, kept+grown, kept, grown)
	}
}
