//go:build race

package devices

// raceEnabled reports a -race build, whose instrumented appends and
// integer formatting allocate more than a plain build's.
const raceEnabled = true
