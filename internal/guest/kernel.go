package guest

import (
	"errors"
	"fmt"
	"strconv"

	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/gmem"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// Flavor distinguishes the guest kernels the paper uses.
type Flavor int

const (
	// FlavorMiniOS is the Mini-OS-based UDP server image of §6.1.
	FlavorMiniOS Flavor = iota
	// FlavorUnikraft is the Unikraft image used by the application
	// experiments.
	FlavorUnikraft
)

func (f Flavor) String() string {
	if f == FlavorMiniOS {
		return "mini-os"
	}
	return "unikraft"
}

// ErrNoVif is returned by the network calls of a kernel without a vif.
var ErrNoVif = errors.New("guest: kernel has no network device")

// Kernel is one running unikernel: the guest-side runtime bound to a
// domain of the simulated platform.
type Kernel struct {
	P      *core.Platform
	Dom    hv.DomID
	Flavor Flavor

	space *mem.Space
	heap  *gmem.Heap
	vif   *devices.Vif

	maps []*gmem.HashMap // page-backed maps to rebind on fork
}

// Boot starts a kernel inside a freshly booted domain, charging the guest
// boot path (kernel init, network bring-up, readiness datagram) to meter —
// the guest-side share of the Fig. 4 instantiation time.
func Boot(p *core.Platform, rec *toolstack.Record, flavor Flavor, meter *vclock.Meter) (*Kernel, error) {
	dom, err := p.HV.Domain(rec.ID)
	if err != nil {
		return nil, err
	}
	k := &Kernel{
		P:      p,
		Dom:    rec.ID,
		Flavor: flavor,
		space:  dom.Space(),
	}
	meter.Charge(meter.Costs().GuestBootKernel, 1)

	// Heap spans everything below the I/O ring region and the three
	// Xen-special pages.
	pages := k.space.Pages()
	ringPages := 0
	if len(rec.Config.Vifs) > 0 {
		ringPages = devices.RXRingPages + devices.TXRingPages
		// Tag the ring region so cloning treats it as private I/O
		// memory (the paper's 1 MiB-RX-ring accounting).
		base := pages - 3 - ringPages
		for i := 0; i < ringPages; i++ {
			if err := k.space.SetKind(mem.PFN(base+i), mem.KindIORing); err != nil {
				return nil, err
			}
		}
		vif, err := p.GuestVif(rec.ID, 0)
		if err != nil {
			return nil, err
		}
		k.vif = vif
		meter.Charge(meter.Costs().GuestNetReady, 1)
	}
	heapPages := pages - 3 - ringPages
	if heapPages < 1 {
		return nil, fmt.Errorf("guest: domain too small: %d pages", pages)
	}
	k.heap = gmem.NewHeap(16, gmem.GAddr(heapPages)*mem.PageSize)

	// Mini-OS UDP-server behaviour: notify the host the moment the app
	// is ready (the Fig. 4 readiness datagram).
	if k.vif != nil {
		meter.Charge(meter.Costs().GuestUDPNotify, 1)
	}
	// Built without fmt, the line boxes nothing; Printk keeps no part of
	// it, so a short one stays on the stack.
	var id [10]byte
	k.Printk(flavor.String() + ": kernel up, dom " + string(strconv.AppendUint(id[:0], uint64(rec.ID), 10)) + "\n")
	return k, nil
}

// Adopt builds a kernel view over an existing domain without running the
// guest boot path — how KFX drives an externally-created clone from Dom0
// (§7.2): the clone's memory is the parent's COW image, and the harness
// only needs accessors plus the heap geometry.
func Adopt(p *core.Platform, dom *hv.Domain, flavor Flavor) (*Kernel, error) {
	k := &Kernel{
		P:      p,
		Dom:    dom.ID,
		Flavor: flavor,
		space:  dom.Space(),
	}
	heapPages := k.space.Pages() - 3
	if heapPages < 1 {
		return nil, fmt.Errorf("guest: domain too small: %d pages", k.space.Pages())
	}
	k.heap = gmem.NewHeap(16, gmem.GAddr(heapPages)*mem.PageSize)
	return k, nil
}

// Printk writes to the guest console.
func (k *Kernel) Printk(s string) {
	k.P.Backends.Console.GuestWrite(uint32(k.Dom), s)
}

// ConsoleLog returns this kernel's console output (host view).
func (k *Kernel) ConsoleLog() string {
	return k.P.Backends.Console.Log(uint32(k.Dom))
}

// Alloc allocates guest memory.
func (k *Kernel) Alloc(size int) (gmem.GAddr, error) { return k.heap.Alloc(size) }

// Free releases guest memory.
func (k *Kernel) Free(addr gmem.GAddr) error { return k.heap.Free(addr) }

// ReadAt copies guest memory at addr into buf.
func (k *Kernel) ReadAt(addr gmem.GAddr, buf []byte) error {
	return gmem.ReadGuest(k.space, addr, buf)
}

// WriteAt stores buf at addr, taking COW faults (charged to ctx's meter).
func (k *Kernel) WriteAt(ctx obs.OpCtx, addr gmem.GAddr, buf []byte) error {
	return gmem.WriteGuest(ctx, k.space, addr, buf)
}

// Kernel satisfies gmem.MemIO.
var _ gmem.MemIO = (*Kernel)(nil)

// Faults reports the COW faults this kernel's domain has taken.
func (k *Kernel) Faults() int { return k.space.Faults() }

// NewMap allocates a page-backed hash map and registers it for fork
// rebinding.
func (k *Kernel) NewMap(buckets int) (*gmem.HashMap, error) {
	m, err := gmem.NewHashMap(k, buckets)
	if err != nil {
		return nil, err
	}
	k.maps = append(k.maps, m)
	return m, nil
}

// ForkResult reports a completed fork.
type ForkResult struct {
	Children []*Kernel
	// Timing breakdown, straight from the platform clone.
	Clone *core.CloneResult
}

// Fork clones this kernel n times — the unikernel fork() of the paper. It
// is transparent at the platform level: the guest only issues the CLONEOP
// hypercall and waits; the hypervisor and xencloned do everything else.
//
// Go cannot snapshot a goroutine stack, so instead of returning twice the
// API takes the child's continuation. Once every child is adopted and
// running, Fork calls childMain on the caller's goroutine for each child in
// turn, on a kernel whose heap, maps and devices are the forked COW view of
// this one, and returns after the last (see DESIGN.md, substitution
// table). A cooperatively scheduled unikernel promises no interleaving of
// parent and children, so running each child to completion first is one
// legal schedule. Passing a nil childMain leaves the children idle
// (waiting for work), which is what the fuzzing and density experiments
// want.
func (k *Kernel) Fork(ctx obs.OpCtx, n int, childMain func(ck *Kernel)) (*ForkResult, error) {
	results, err := k.P.CloneOp(ctx,
		core.CloneSpec{Caller: k.Dom, Parent: k.Dom, Count: n})
	if err != nil {
		return nil, err
	}
	res := results[0]
	out := &ForkResult{Clone: res}
	for _, child := range res.Children {
		ck, err := k.adoptChild(child)
		if err != nil {
			return out, err
		}
		out.Children = append(out.Children, ck)
	}
	if childMain != nil {
		for _, ck := range out.Children {
			childMain(ck)
		}
	}
	return out, nil
}

// adoptChild builds the child kernel object over the cloned domain.
func (k *Kernel) adoptChild(child hv.DomID) (*Kernel, error) {
	dom, err := k.P.HV.Domain(child)
	if err != nil {
		return nil, err
	}
	ck := &Kernel{
		P:      k.P,
		Dom:    child,
		Flavor: k.Flavor,
		space:  dom.Space(),
		heap:   k.heap.Clone(),
	}
	for _, m := range k.maps {
		ck.maps = append(ck.maps, m.CloneFor(ck))
	}
	if vif, err := k.P.GuestVif(child, 0); err == nil {
		ck.vif = vif
	}
	return ck, nil
}

// Map returns the i'th registered map of this kernel (fork-rebound on
// children).
func (k *Kernel) Map(i int) *gmem.HashMap {
	if i < 0 || i >= len(k.maps) {
		return nil
	}
	return k.maps[i]
}
