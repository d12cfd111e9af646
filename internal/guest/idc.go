package guest

import (
	"errors"
	"fmt"
	"time"

	"nephele/internal/evtchn"
	"nephele/internal/gmem"
	"nephele/internal/gnttab"
	"nephele/internal/hv"
	"nephele/internal/mem"
)

// Inter-domain communication (§4.3, §5.2.2): the guest-side API that
// mirrors IPC. A parent sets up shared memory regions (grant references
// with the DOMID_CHILD wildcard) and notification channels (event channels
// with the same wildcard) BEFORE forking; every clone is implicitly
// granted/bound at clone time, so IPC is already established when fork()
// returns — the property Kylinx lacks (§8).

// Errors.
var (
	ErrPipeClosed  = errors.New("guest: pipe closed")
	ErrPipeTimeout = errors.New("guest: pipe read timed out")
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
	k.mu.Lock()
	k.idcPages[base] = pages
	k.mu.Unlock()
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

// AwaitSignal blocks until a notification arrives on the channel's port
// or the wall-clock timeout expires (timeouts only bound tests).
func (k *Kernel) AwaitSignal(ch *IDCChannel, timeout time.Duration) bool {
	if k.P.HV.Events.Pending(k.Dom, ch.Port) {
		return true
	}
	wake := k.wakeChan(ch.Port)
	select {
	case <-wake:
		k.P.HV.Events.Pending(k.Dom, ch.Port) // clear
		return true
	case <-time.After(timeout):
		return k.P.HV.Events.Pending(k.Dom, ch.Port)
	}
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
	if err := k.WriteAt(region.Base(), zero, nil); err != nil {
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
	return p.k.WriteAt(p.region.Base()+gmem.GAddr(off), b, nil)
}

// Write copies buf into the pipe, blocking (spinning on notifications)
// while full. Returns when all bytes are queued.
func (p *Pipe) Write(buf []byte) (int, error) {
	if p.closed {
		return 0, ErrPipeClosed
	}
	written := 0
	for written < len(buf) {
		head, err := p.loadU32(pipeHeadOff)
		if err != nil {
			return written, err
		}
		tail, err := p.loadU32(pipeTailOff)
		if err != nil {
			return written, err
		}
		space := pipeCap - int(tail-head)
		if space == 0 {
			if !p.k.AwaitSignal(p.ch, 100*time.Millisecond) {
				continue
			}
			continue
		}
		n := len(buf) - written
		if n > space {
			n = space
		}
		for i := 0; i < n; i++ {
			off := pipeDataOff + int((tail+uint32(i))%uint32(pipeCap))
			if err := p.k.WriteAt(p.region.Base()+gmem.GAddr(off), buf[written+i:written+i+1], nil); err != nil {
				return written, err
			}
		}
		if err := p.storeU32(pipeTailOff, tail+uint32(n)); err != nil {
			return written, err
		}
		written += n
		if err := p.notifyPeer(); err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read fills buf with up to len(buf) bytes, blocking until at least one
// byte arrives or timeout passes.
func (p *Pipe) Read(buf []byte, timeout time.Duration) (int, error) {
	if p.closed {
		return 0, ErrPipeClosed
	}
	deadline := time.Now().Add(timeout)
	for {
		head, err := p.loadU32(pipeHeadOff)
		if err != nil {
			return 0, err
		}
		tail, err := p.loadU32(pipeTailOff)
		if err != nil {
			return 0, err
		}
		avail := int(tail - head)
		if avail > 0 {
			n := len(buf)
			if n > avail {
				n = avail
			}
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
		remain := time.Until(deadline)
		if remain <= 0 {
			return 0, ErrPipeTimeout
		}
		p.k.AwaitSignal(p.ch, remain)
	}
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
func (sp *SocketPair) Recv(asParent bool, buf []byte, timeout time.Duration) (int, error) {
	if asParent {
		return sp.BtoA.Read(buf, timeout)
	}
	return sp.AtoB.Read(buf, timeout)
}
