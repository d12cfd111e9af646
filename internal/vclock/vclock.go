// Package vclock provides the virtual time base for the Nephele simulation.
//
// Nothing in the simulated virtualization platform consults the wall clock.
// Instead, every mechanism call performs its real state change and charges
// the work it actually did (pages copied, page-table entries written,
// Xenstore requests served, ...) against a Meter, using the unit costs of a
// CostModel. Experiment drivers read the accumulated durations, and a
// Vector orders operations across the hosts of a cluster. This keeps every
// benchmark deterministic while letting the paper's curves emerge from
// mechanism counts rather than from hard-coded numbers.
package vclock

import "time"

// Duration is virtual time, with the same resolution as time.Duration.
type Duration = time.Duration
