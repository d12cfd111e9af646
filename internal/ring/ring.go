// Package ring implements the split-driver shared ring abstraction used by
// paravirtualized devices: a bounded request/response queue living in guest
// pages that a frontend and a backend both index. Cloning a device clones
// its rings with a per-device-type policy (§4.2): network rings are copied
// because their contents are tied to guest state (pending TX requests,
// preallocated RX buffers with allocator metadata), while console rings are
// recreated fresh so parent output is not replayed into the child log.
package ring

import (
	"errors"
	"fmt"
)

// Errors.
var (
	ErrFull  = errors.New("ring: full")
	ErrEmpty = errors.New("ring: empty")
)

// Entry is one slot of a shared ring. Payload semantics belong to the
// device; Meta carries frontend-private data (e.g. the guest buffer pointer
// of a preallocated RX slot, which is why RX rings must be copied on
// clone).
type Entry struct {
	ID      uint64
	Op      uint8
	Payload []byte
	Meta    uint64
}

// clone deep-copies an entry so parent and child rings do not alias
// payload storage.
func (e Entry) clone() Entry {
	var p []byte
	if e.Payload != nil {
		p = make([]byte, len(e.Payload))
		copy(p, e.Payload)
	}
	return Entry{ID: e.ID, Op: e.Op, Payload: p, Meta: e.Meta}
}

// Ring is a bounded single-producer single-consumer queue with explicit
// produce/consume indices, mirroring Xen's ring.h layout. The slot count is
// a limit, not a size: slots is allocated on the first Push (a guest's ring
// page exists either way; the simulator's copy of its entries need not), so
// a ring that never carried an entry — every ring of an idle clone — is a
// header.
type Ring struct {
	slots    []Entry // nil until the first Push, then capacity entries
	capacity uint64
	prodIdx  uint64
	consIdx  uint64
	// Pages is the number of guest frames backing the ring; used for
	// memory accounting (the paper's 1 MiB RX ring is the largest
	// per-clone private allocation).
	pages int
}

// New creates a ring with the given number of slots, backed by pages guest
// frames.
func New(slots, pages int) *Ring {
	if slots <= 0 {
		panic(fmt.Sprintf("ring: bad slot count %d", slots))
	}
	return &Ring{capacity: uint64(slots), pages: pages}
}

// Pages reports the number of guest frames backing the ring.
func (r *Ring) Pages() int { return r.pages }

// Capacity reports the slot count.
func (r *Ring) Capacity() int { return int(r.capacity) }

// Len reports the number of produced-but-unconsumed entries.
func (r *Ring) Len() int {
	return int(r.prodIdx - r.consIdx)
}

// Push produces one entry.
func (r *Ring) Push(e Entry) error {
	if r.prodIdx-r.consIdx >= r.capacity {
		return ErrFull
	}
	if r.slots == nil {
		r.slots = make([]Entry, r.capacity)
	}
	r.slots[r.prodIdx%r.capacity] = e
	r.prodIdx++
	return nil
}

// Pop consumes one entry.
func (r *Ring) Pop() (Entry, error) {
	if r.prodIdx == r.consIdx {
		return Entry{}, ErrEmpty
	}
	e := r.slots[r.consIdx%r.capacity]
	r.consIdx++
	return e, nil
}

// PeekAll returns the unconsumed entries without consuming them.
func (r *Ring) PeekAll() []Entry {
	out := make([]Entry, 0, r.prodIdx-r.consIdx)
	for i := r.consIdx; i < r.prodIdx; i++ {
		out = append(out, r.slots[i%r.capacity])
	}
	return out
}

// Clone copies the ring: same capacity and backing-page count, deep-copied
// contents and identical indices, so the child frontend observes exactly
// the parent's in-flight state (pending TX requests are serviced in both
// domains; preallocated RX slots keep their allocator metadata).
func (r *Ring) Clone() *Ring {
	c := &Ring{
		capacity: r.capacity,
		prodIdx:  r.prodIdx,
		consIdx:  r.consIdx,
		pages:    r.pages,
	}
	if r.prodIdx != r.consIdx {
		c.slots = make([]Entry, r.capacity)
	}
	for i := r.consIdx; i < r.prodIdx; i++ {
		idx := i % r.capacity
		c.slots[idx] = r.slots[idx].clone()
	}
	return c
}

// Fresh creates an empty ring with the same geometry (the console clone
// policy).
func (r *Ring) Fresh() *Ring {
	return &Ring{capacity: r.capacity, pages: r.pages}
}

// Reset drops all unconsumed entries.
func (r *Ring) Reset() {
	r.prodIdx, r.consIdx = 0, 0
}
