// Package hv simulates the Xen hypervisor as extended by Nephele: domain
// and vCPU management, the memory/event-channel/grant-table subsystems, a
// single new hypercall (CLONEOP) covering every cloning operation, the
// clone-notification ring consumed by xencloned, and the VIRQ_CLONED
// virtual interrupt (§5).
package hv

import (
	"errors"
	"fmt"
	"sync"

	"nephele/internal/mem"
)

// DomID is a domain identifier (alias of the memory package's owner ID so
// both layers speak the same type).
type DomID = mem.DomID

// Errors.
var (
	ErrNoSuchDomain    = errors.New("hv: no such domain")
	ErrCloningDisabled = errors.New("hv: cloning disabled")
	ErrCloneLimit      = errors.New("hv: clone limit exceeded")
	ErrBadCloneCount   = errors.New("hv: clone of fewer than one child")
	ErrRingFull        = errors.New("hv: clone notification ring full")
	ErrBadVCPU         = errors.New("hv: bad vcpu")
	ErrNoPendingClone  = errors.New("hv: no pending clone completion")
	ErrNoDomainIDs     = errors.New("hv: domain IDs exhausted")
)

// Registers is the user-visible register state of one vCPU. Only the
// fields the cloning path manipulates are modelled.
type Registers struct {
	RAX uint64 // hypercall return: 0 for the parent, 1 for any child
	RIP uint64
	RSP uint64
}

// VCPU is one virtual CPU.
type VCPU struct {
	ID     int
	Regs   Registers
	Online bool
}

// cloneConfig is the per-domain cloning policy set through domctl (§5.1):
// a guest can be cloned only if its configuration allows a non-zero number
// of clones.
type cloneConfig struct {
	enabled   bool
	maxClones int
	made      int // clones created so far
}

// Domain is the hypervisor-side state of one guest (struct domain).
type Domain struct {
	mu sync.Mutex

	ID     DomID
	vcpus  []*VCPU
	space  *mem.Space
	paused int // pause reference count

	// Family tracking: two domains are in the same family iff they share
	// an ancestor or one is the ancestor of the other (§4).
	parent    DomID
	hasParent bool
	children  []DomID

	clone cloneConfig

	// Xen-special private pages (§5.2): recreated for every child.
	StartInfoPFN mem.PFN
	ConsolePFN   mem.PFN
	XenstorePFN  mem.PFN

	destroyed bool
}

func newDomain(id DomID, vcpus int) *Domain {
	d := &Domain{ID: id}
	for i := 0; i < vcpus; i++ {
		d.vcpus = append(d.vcpus, &VCPU{ID: i, Online: i == 0})
	}
	return d
}

// Space returns the domain's address space.
func (d *Domain) Space() *mem.Space {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.space
}

// VCPU returns vCPU i.
func (d *Domain) VCPU(i int) (*VCPU, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if i < 0 || i >= len(d.vcpus) {
		return nil, fmt.Errorf("%w: %d", ErrBadVCPU, i)
	}
	return d.vcpus[i], nil
}

// Parent reports the domain's parent, if it is a clone.
func (d *Domain) Parent() (DomID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.parent, d.hasParent
}

// Children returns the domain's direct clones.
func (d *Domain) Children() []DomID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]DomID, len(d.children))
	copy(out, d.children)
	return out
}

// Paused reports whether the domain is paused.
func (d *Domain) Paused() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.paused > 0
}

// pause increments the pause count.
func (d *Domain) pause() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.paused++
}

// unpause decrements the pause count; the domain runs again at zero.
func (d *Domain) unpause() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.paused > 0 {
		d.paused--
	}
}

// CloneNotification is one entry of the ring through which the hypervisor
// tells xencloned about freshly cloned domains (§5.1). It carries only the
// minimum: domain IDs and the start_info frame numbers of both sides.
type CloneNotification struct {
	Parent        DomID
	Child         DomID
	ParentSIFrame mem.MFN
	ChildSIFrame  mem.MFN
}
