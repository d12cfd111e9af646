package guest

import (
	"errors"
	"fmt"

	"nephele/internal/evtchn"
	"nephele/internal/gmem"
	"nephele/internal/gnttab"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// Inter-domain communication (§4.3, §5.2.2): the guest-side API that
// mirrors IPC. A parent sets up shared memory regions (grant references
// with the DOMID_CHILD wildcard) and notification channels (event channels
// with the same wildcard) BEFORE forking; every clone is implicitly
// granted/bound at clone time, so IPC is already established when fork()
// returns — the property Kylinx lacks (§8).
//
// Nothing here blocks. Fork runs each child's continuation to completion
// on the caller's goroutine, so a wait could only wait for itself: a read
// of an empty pipe reports ErrPipeEmpty, a write to a full one stores what
// fits and reports ErrPipeFull, and a notification is a pending bit the
// receiver checks (and clears) with Events.Pending.

// Errors.
var (
	ErrPipeClosed = errors.New("guest: pipe closed")
	ErrPipeEmpty  = errors.New("guest: pipe empty")
	ErrPipeFull   = errors.New("guest: pipe full")
)

// IDCRegion is a run of guest pages shared (un-COWed) with all clones.
type IDCRegion struct {
	BasePFN mem.PFN
	Pages   int
	Refs    []gnttab.Ref
}

// Base returns the region's base guest address.
func (r IDCRegion) Base() gmem.GAddr { return gmem.GAddr(r.BasePFN) * mem.PageSize }

// IDCAlloc carves an IDC region out of the kernel's heap: the pages are
// tagged KindIDC (genuinely shared on clone, never COW) and granted to
// DOMID_CHILD.
func (k *Kernel) IDCAlloc(pages int) (*IDCRegion, error) {
	if pages <= 0 {
		return nil, fmt.Errorf("guest: bad IDC size %d", pages)
	}
	// Allocate one extra page of slack so a page-aligned run of the
	// requested length always fits inside the heap allocation.
	addr, err := k.heap.Alloc((pages + 1) * mem.PageSize)
	if err != nil {
		return nil, err
	}
	base := mem.PFN((uint64(addr) + mem.PageSize - 1) / mem.PageSize)
	region := &IDCRegion{BasePFN: base, Pages: pages}
	for i := 0; i < pages; i++ {
		pfn := base + mem.PFN(i)
		if err := k.space.SetKind(pfn, mem.KindIDC); err != nil {
			return nil, err
		}
		mfn, err := k.space.MFNOf(pfn)
		if err != nil {
			return nil, err
		}
		ref, err := k.P.HV.Grants.Grant(k.Dom, mem.DomIDChild, mfn, gnttab.FlagIDC)
		if err != nil {
			return nil, err
		}
		region.Refs = append(region.Refs, ref)
	}
	return region, nil
}

// IDCChannel is a notification endpoint created with DOMID_CHILD.
type IDCChannel struct {
	Port evtchn.Port
}

// IDCChannelOpen allocates an event channel whose remote end is "all my
// future clones".
func (k *Kernel) IDCChannelOpen() (*IDCChannel, error) {
	port, err := k.P.HV.Events.AllocUnbound(k.Dom, mem.DomIDChild)
	if err != nil {
		return nil, err
	}
	return &IDCChannel{Port: port}, nil
}

// NotifyChild signals one clone over an IDC channel (parent side).
func (k *Kernel) NotifyChild(ch *IDCChannel, child hv.DomID) error {
	return k.P.HV.Events.SendToChild(k.Dom, ch.Port, child)
}

// NotifyParent signals the parent over an inherited IDC channel (child
// side).
func (k *Kernel) NotifyParent(ch *IDCChannel) error {
	return k.P.HV.Events.NotifyParent(k.Dom, ch.Port)
}

// Pipe is an anonymous pipe built on one IDC page and one IDC event
// channel: a byte ring with head/tail counters in the shared page.
//
// Page layout: head u32 @0 (consumer), tail u32 @4 (producer), data @8.
const (
	pipeHeadOff = 0
	pipeTailOff = 4
	pipeDataOff = 8
	pipeCap     = mem.PageSize - pipeDataOff
)

// Pipe is one end-to-end pipe; the same object template is inherited by a
// child via ForChild, after which either side may read or write (the
// conventional roles are chosen by the application, as with POSIX pipes).
type Pipe struct {
	k      *Kernel
	region *IDCRegion
	ch     *IDCChannel
	// peer is the domain on the other side: the child for the parent's
	// view (set by ForChild), the parent for the child's view.
	peer     hv.DomID
	isParent bool
	closed   bool
}

// NewPipe creates a pipe on the parent before forking.
func (k *Kernel) NewPipe() (*Pipe, error) {
	region, err := k.IDCAlloc(1)
	if err != nil {
		return nil, err
	}
	ch, err := k.IDCChannelOpen()
	if err != nil {
		return nil, err
	}
	zero := make([]byte, 8)
	if err := k.WriteAt(obs.OpCtx{}, region.Base(), zero); err != nil {
		return nil, err
	}
	return &Pipe{k: k, region: region, ch: ch, isParent: true}, nil
}

// ForChild returns the child's inherited view of the pipe and records the
// child as the parent's peer. Call it after Fork with the child kernel.
func (p *Pipe) ForChild(ck *Kernel) *Pipe {
	p.peer = ck.Dom
	return &Pipe{
		k:        ck,
		region:   p.region, // same pfns: the pages are genuinely shared
		ch:       p.ch,     // same port: the child was implicitly bound
		peer:     p.k.Dom,
		isParent: false,
	}
}

// notifyPeer kicks the other end.
func (p *Pipe) notifyPeer() error {
	if p.isParent {
		if p.peer == 0 {
			return nil // no child attached yet
		}
		return p.k.NotifyChild(p.ch, p.peer)
	}
	return p.k.NotifyParent(p.ch)
}

func (p *Pipe) loadU32(off int) (uint32, error) {
	b := make([]byte, 4)
	if err := p.k.ReadAt(p.region.Base()+gmem.GAddr(off), b); err != nil {
		return 0, err
	}
	return gmem.GetU32(b), nil
}

func (p *Pipe) storeU32(off int, v uint32) error {
	b := make([]byte, 4)
	gmem.PutU32(b, v)
	return p.k.WriteAt(obs.OpCtx{}, p.region.Base()+gmem.GAddr(off), b)
}

// Write queues as much of buf as the ring has room for and kicks the
// peer. It returns the count queued, with ErrPipeFull when that is short
// of len(buf); the caller retries the rest after the peer has read.
func (p *Pipe) Write(buf []byte) (int, error) {
	if p.closed {
		return 0, ErrPipeClosed
	}
	head, tail, err := p.counters()
	if err != nil {
		return 0, err
	}
	n := min(len(buf), pipeCap-int(tail-head))
	if n > 0 {
		for i := 0; i < n; i++ {
			off := pipeDataOff + int((tail+uint32(i))%uint32(pipeCap))
			if err := p.k.WriteAt(obs.OpCtx{}, p.region.Base()+gmem.GAddr(off), buf[i:i+1]); err != nil {
				return 0, err
			}
		}
		if err := p.storeU32(pipeTailOff, tail+uint32(n)); err != nil {
			return 0, err
		}
		if err := p.notifyPeer(); err != nil {
			return n, err
		}
	}
	if n < len(buf) {
		return n, ErrPipeFull
	}
	return n, nil
}

// Read moves up to len(buf) queued bytes into buf and kicks the peer. An
// empty pipe is ErrPipeEmpty.
func (p *Pipe) Read(buf []byte) (int, error) {
	if p.closed {
		return 0, ErrPipeClosed
	}
	head, tail, err := p.counters()
	if err != nil {
		return 0, err
	}
	avail := int(tail - head)
	if avail == 0 {
		return 0, ErrPipeEmpty
	}
	n := min(len(buf), avail)
	for i := 0; i < n; i++ {
		off := pipeDataOff + int((head+uint32(i))%uint32(pipeCap))
		if err := p.k.ReadAt(p.region.Base()+gmem.GAddr(off), buf[i:i+1]); err != nil {
			return 0, err
		}
	}
	if err := p.storeU32(pipeHeadOff, head+uint32(n)); err != nil {
		return 0, err
	}
	if err := p.notifyPeer(); err != nil {
		return n, err
	}
	return n, nil
}

// counters loads the ring's consumer and producer counters. Looking at the
// ring is what consumes the peer's kick, so it clears the channel's
// pending bit first, the way a split driver acknowledges an event before
// it checks its ring.
func (p *Pipe) counters() (head, tail uint32, err error) {
	p.k.P.HV.Events.Pending(p.k.Dom, p.ch.Port)
	if head, err = p.loadU32(pipeHeadOff); err != nil {
		return 0, 0, err
	}
	tail, err = p.loadU32(pipeTailOff)
	return head, tail, err
}

// Close marks this end closed.
func (p *Pipe) Close() { p.closed = true }

// SocketPair is a bidirectional channel: two pipes, one per direction,
// again established before fork so both ends work the moment fork()
// returns.
type SocketPair struct {
	// AtoB carries parent->child traffic, BtoA the reverse.
	AtoB, BtoA *Pipe
}

// NewSocketPair creates the pair on the parent.
func (k *Kernel) NewSocketPair() (*SocketPair, error) {
	a, err := k.NewPipe()
	if err != nil {
		return nil, err
	}
	b, err := k.NewPipe()
	if err != nil {
		return nil, err
	}
	return &SocketPair{AtoB: a, BtoA: b}, nil
}

// ForChild returns the child's view of the pair.
func (sp *SocketPair) ForChild(ck *Kernel) *SocketPair {
	return &SocketPair{AtoB: sp.AtoB.ForChild(ck), BtoA: sp.BtoA.ForChild(ck)}
}

// Send writes on the appropriate direction for the caller's side.
func (sp *SocketPair) Send(fromParent bool, buf []byte) (int, error) {
	if fromParent {
		return sp.AtoB.Write(buf)
	}
	return sp.BtoA.Write(buf)
}

// Recv reads from the appropriate direction for the caller's side.
func (sp *SocketPair) Recv(asParent bool, buf []byte) (int, error) {
	if asParent {
		return sp.BtoA.Read(buf)
	}
	return sp.AtoB.Read(buf)
}
