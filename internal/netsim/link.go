package netsim

import (
	"errors"
	"fmt"
)

// Inter-host links. A cluster of simulated machines is connected by a
// full mesh of point-to-point bonded links: each link aggregates Width
// slave interfaces the way the guest-facing Bond aggregates clone vifs
// (balance-xor over a stateless hash), so a multi-extent transfer spreads
// its chunks across the slaves and its wire time is set by the busiest
// slave, not the byte total. Links carry no wall-clock notion — they plan
// and count; the caller charges the plan against a vclock.Meter using the
// CostModel's Xfer* units.

// ErrBadHost reports a host index outside the fabric.
var ErrBadHost = errors.New("netsim: host index outside the fabric")

// Chunk is one transfer extent: a content hash (the dedup identity and the
// slave-hash input) plus the pages it ships. Deduplicated chunks travel as
// a header only (Pages 0 on the wire side).
type Chunk struct {
	// Hash picks the bond slave that carries a chunk with pages (Hash %
	// width), so it is a virtual-time input: a different hash function
	// moves every cluster transfer time. A chunk with no pages costs one
	// header and its hash is never read.
	Hash  uint64
	Pages int
}

// TransferPlan is the deterministic slave schedule of one transfer.
type TransferPlan struct {
	// Chunks is the number of extent headers exchanged (every chunk,
	// deduplicated or not, costs one header + hash round).
	Chunks int
	// Pages is the total page count actually put on the wire.
	Pages int
	// DedupPages counts pages skipped because the receiver already held
	// the chunk.
	DedupPages int
	// SlavePages is the per-slave wire load; its maximum bounds the
	// transfer's wire time on the bonded link.
	SlavePages []int
	// MaxSlavePages is the busiest slave's page count.
	MaxSlavePages int
}

// Link is one bonded point-to-point inter-host link.
type Link struct {
	a, b  int
	width int

	transfers  int64
	pagesSent  int64
	pagesDedup int64
}

// Width reports the bonded slave count.
func (l *Link) Width() int { return l.width }

// Ends reports the two host indices the link connects.
func (l *Link) Ends() (int, int) { return l.a, l.b }

// Plan schedules a transfer over the link: each chunk lands on the slave
// its content hash selects (the balance-xor discipline — one chunk, one
// slave, no per-flow state), deduplicated chunks contribute a header but
// no pages, and the busiest slave determines the wire time. Plan is pure —
// a transfer that aborts before the wire leaves no trace; call Commit once
// the transfer actually happens to account it.
func (l *Link) Plan(chunks []Chunk, dedup func(Chunk) bool) TransferPlan {
	plan := TransferPlan{SlavePages: make([]int, l.width)}
	for _, c := range chunks {
		plan.Chunks++
		if c.Pages == 0 {
			continue
		}
		if dedup != nil && dedup(c) {
			plan.DedupPages += c.Pages
			continue
		}
		slave := int(c.Hash % uint64(l.width))
		plan.SlavePages[slave] += c.Pages
		plan.Pages += c.Pages
	}
	for _, p := range plan.SlavePages {
		if p > plan.MaxSlavePages {
			plan.MaxSlavePages = p
		}
	}
	return plan
}

// Commit accounts one executed transfer plan in the link's cumulative
// counters.
func (l *Link) Commit(plan TransferPlan) {
	l.transfers++
	l.pagesSent += int64(plan.Pages)
	l.pagesDedup += int64(plan.DedupPages)
}

// Stats reports the link's cumulative transfer counters.
func (l *Link) Stats() (transfers, pagesSent, pagesDeduped int64) {
	return l.transfers, l.pagesSent, l.pagesDedup
}

// Fabric is the cluster interconnect: a full mesh of bonded links between
// n hosts. Links are symmetric — Link(a, b) and Link(b, a) are the same
// object — and created eagerly so lookups never allocate.
type Fabric struct {
	hosts int
	width int
	links map[[2]int]*Link
}

// NewFabric builds a full mesh over hosts machines, each link bonding
// width slaves (width < 1 is clamped to 1).
func NewFabric(hosts, width int) *Fabric {
	if hosts < 1 {
		panic(fmt.Sprintf("netsim: fabric over %d hosts", hosts))
	}
	if width < 1 {
		width = 1
	}
	f := &Fabric{hosts: hosts, width: width, links: make(map[[2]int]*Link)}
	for a := 0; a < hosts; a++ {
		for b := a + 1; b < hosts; b++ {
			f.links[[2]int{a, b}] = &Link{a: a, b: b, width: width}
		}
	}
	return f
}

// Hosts reports the fabric's machine count.
func (f *Fabric) Hosts() int { return f.hosts }

// Width reports the bonded width of every link.
func (f *Fabric) Width() int { return f.width }

// Link returns the bonded link between two distinct hosts.
func (f *Fabric) Link(a, b int) (*Link, error) {
	if a < 0 || a >= f.hosts || b < 0 || b >= f.hosts {
		return nil, fmt.Errorf("%w: %d-%d of %d", ErrBadHost, a, b, f.hosts)
	}
	if a == b {
		return nil, fmt.Errorf("netsim: no link from host %d to itself", a)
	}
	if a > b {
		a, b = b, a
	}
	return f.links[[2]int{a, b}], nil
}
