// Package a seeds determinism violations for the analyzer's test suite:
// in virtual-time code, wall-clock reads, host-clock waits, ambient
// randomness, and map iteration all make replay diverge.
package a

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// Elapsed reads the wall clock, which virtual-time code must never do.
func Elapsed() time.Duration {
	start := time.Now()      // want `time\.Now`
	return time.Since(start) // want `time\.Since`
}

// Waits blocks on the host clock in each of the ways time offers.
func Waits(d time.Duration) {
	<-time.After(d)                     // want `time\.After`
	time.Sleep(d)                       // want `time\.Sleep`
	time.NewTimer(d).Stop()             // want `time\.NewTimer`
	time.NewTicker(d).Stop()            // want `time\.NewTicker`
	<-time.Tick(d)                      // want `time\.Tick`
	time.AfterFunc(d, func() {}).Stop() // want `time\.AfterFunc`
}

// Jitter draws from the shared, ambiently seeded source.
func Jitter() int {
	return rand.Intn(8) // want `math/rand`
}

// SeededOK draws from an explicitly seeded source, which replays.
func SeededOK(seed int64) int {
	r := rand.New(rand.NewSource(seed))
	return r.Intn(8)
}

// Keys iterates a map, so the append order varies run to run even though
// the sort repairs it afterwards: the analyzer wants the iteration itself
// annotated.
func Keys(m map[int]string) []int {
	out := make([]int, 0, len(m))
	for k := range m { // want `map iteration`
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// SliceSum iterates a slice, which is deterministic.
func SliceSum(s []int) int {
	total := 0
	for _, v := range s {
		total += v
	}
	return total
}

// Goroutines depends on scheduler state.
func Goroutines() int {
	return runtime.NumGoroutine() // want `runtime\.NumGoroutine`
}

// MapSum is order-insensitive, so the iteration is waived.
func MapSum(m map[int]int) int {
	total := 0
	for _, v := range m { //nephele:nondeterministic-ok — commutative sum
		total += v
	}
	return total
}
