package vclock

import (
	"fmt"
	"strings"
)

// Vector is a per-host vector clock over virtual time: component i is the
// virtual time host i has accumulated in cluster-visible operations. It
// orders cross-host events (a remote clone's child materializing on a peer)
// the same way Meter merges order intra-host work: deterministically, from
// mechanism counts, never from the wall clock.
//
// The merge rule mirrors the meter-merge discipline of the clone pipeline.
// When host B materializes a child cloned from host A, B first absorbs A's
// snapshot componentwise (max — B now causally follows everything A had
// seen when it shipped the extents), then ticks its own component by the
// virtual time the transfer and materialization charged (meter.Add of the
// sequential child's elapsed time). Two hosts that never exchanged clones
// stay Concurrent.
type Vector struct{ ts []Duration }

// NewVector returns a vector clock over n hosts, all components at zero.
func NewVector(n int) *Vector {
	if n <= 0 {
		panic(fmt.Sprintf("vclock: vector over %d hosts", n))
	}
	return &Vector{ts: make([]Duration, n)}
}

// Hosts reports the number of components.
func (v *Vector) Hosts() int {
	return len(v.ts)
}

// Tick advances the owning host's component by d (the virtual time a
// cluster-visible operation charged). Negative advances panic: virtual
// time is monotonic.
func (v *Vector) Tick(host int, d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative vector tick %v", d))
	}
	v.ts[host] += d
}

// Merge absorbs a peer snapshot componentwise: each component becomes the
// maximum of the two — the receiving host now causally follows every event
// the snapshot had seen. Snapshots of a different width panic (the cluster
// geometry is fixed at construction).
func (v *Vector) Merge(peer []Duration) {
	if len(peer) != len(v.ts) {
		panic(fmt.Sprintf("vclock: merging a %d-host snapshot into a %d-host vector", len(peer), len(v.ts)))
	}
	for i, t := range peer {
		if t > v.ts[i] {
			v.ts[i] = t
		}
	}
}

// Snapshot returns a copy of the components — the value shipped alongside
// a cross-host transfer for the receiver to Merge.
func (v *Vector) Snapshot() []Duration {
	out := make([]Duration, len(v.ts))
	copy(out, v.ts)
	return out
}

// At reports one component.
func (v *Vector) At(host int) Duration {
	return v.ts[host]
}

// String renders the components for logs.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range v.ts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v", t)
	}
	b.WriteByte(']')
	return b.String()
}

// Ordering is the causal relation between two vector snapshots.
type Ordering int

const (
	// Equal: identical components.
	Equal Ordering = iota
	// Before: a happened-before b (a <= b componentwise, a != b).
	Before
	// After: b happened-before a.
	After
	// Concurrent: neither ordered — the snapshots diverge on independent
	// hosts.
	Concurrent
)

func (o Ordering) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Compare reports the causal relation between two snapshots of the same
// width.
func Compare(a, b []Duration) Ordering {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vclock: comparing snapshots of %d and %d hosts", len(a), len(b)))
	}
	aLess, bLess := false, false
	for i := range a {
		switch {
		case a[i] < b[i]:
			aLess = true
		case a[i] > b[i]:
			bLess = true
		}
	}
	switch {
	case aLess && bLess:
		return Concurrent
	case aLess:
		return Before
	case bLess:
		return After
	default:
		return Equal
	}
}
