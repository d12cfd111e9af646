//go:build !race

package core_test

// raceEnabled reports a -race build, in which sync.Pool drops a random
// quarter of its Puts by design.
const raceEnabled = false
