package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nephele/internal/fault"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// CloneMode selects how CloneOp populates the child's address space.
type CloneMode int

const (
	// CloneEager rebuilds the whole child mapping at clone time (the
	// default, and the zero value for wire compatibility).
	CloneEager CloneMode = iota
	// CloneLazy stamps only the hot extents (metadata frames, start_info,
	// rings, IDC regions) at clone time and leaves regular pages in the
	// unmapped-lazy pte state, to be materialized by demand faults and a
	// background streamer. See DESIGN.md §13.
	CloneLazy
)

func (m CloneMode) String() string {
	switch m {
	case CloneEager:
		return "eager"
	case CloneLazy:
		return "lazy"
	default:
		return fmt.Sprintf("CloneMode(%d)", int(m))
	}
}

// streamChunk is the number of consecutive lazy pages the streamer
// materializes per locked batch. It bounds how long a demand fault can
// wait behind the streamer while keeping the per-chunk locking overhead
// amortized.
const streamChunk = 128

// pledgePTEs records one lazy-child claim on every frame referenced by the
// run. A pledge freezes the frame's clone-time contents (every write path
// converts the frame to dom_cow and copies away first) without transferring
// ownership or charging virtual time — the transfer and its PageShare charge
// are deferred to whoever materializes the page first. Validation runs
// before any mutation, so a failed call leaves the pool untouched.
//
//nephele:noalloc
func (m *Memory) pledgePTEs(ptes []pte) error {
	c := runCursor{m: m, ptes: ptes}
	m.lockBatch()
	defer m.mu.Unlock()
	for c.next() {
		fr, short := c.frames()
		for j := range fr {
			if !fr[j].inUse {
				return c.fail(frameErr(ErrDoubleFree, c.mfn(j)))
			}
		}
		if short {
			return c.fail(frameErr(ErrDoubleFree, c.mfn(len(fr))))
		}
	}
	if err := c.badFrame(); err != nil {
		return err
	}
	for c.rewind(); c.next(); {
		fr, _ := c.frames()
		for j := range fr {
			fr[j].pledges++
		}
	}
	return nil
}

// cancelPledged drops one pledge per frame referenced by the run without
// materializing anything (lazy-child teardown). Zombie frames whose last
// pledge goes are freed. Like ReleaseN, bad frames are recorded and skipped
// and the first error is returned after the whole run is processed, an
// out-of-range MFN outranking a per-frame error.
//
//nephele:noalloc
func (m *Memory) cancelPledged(ptes []pte) error {
	c := runCursor{m: m, ptes: ptes, mode: runSkipBad}
	m.lockBatch()
	defer m.mu.Unlock()
	var firstErr error
	freed := 0
	for c.next() {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse || f.pledges == 0 {
				if firstErr == nil {
					firstErr = frameErr(ErrNotPledged, c.mfn(j))
				}
				continue
			}
			f.pledges--
			if f.pledges == 0 && f.owner == DomIDCOW && f.refcount == 0 {
				freed++
				m.resetFrameLocked(f, c.mfn(j))
			}
		}
		if short && firstErr == nil {
			firstErr = frameErr(ErrNotPledged, c.mfn(len(fr)))
		}
	}
	m.dropUsageLocked(DomIDCOW, freed)
	m.shared -= freed
	m.free += freed
	if c.anyBad {
		return c.badFrame()
	}
	return firstErr
}

// adoptPledged materializes one pledge per frame referenced by the run on
// behalf of dom: the pledge converts into a real sharer reference. Frames
// still owned by a live domain are transferred to dom_cow here — this is
// the deferred PageShare the eager path charged at clone time, so the
// family-wide conversion cost stays exactly one PageShare per frame
// regardless of when (or by whom) the frame is first materialized. Frames
// already owned by dom_cow (including zombies) just gain a reference at no
// virtual cost, mirroring the eager second-clone fast path. Validation runs
// before any mutation.
//
//nephele:noalloc
func (m *Memory) adoptPledged(dom DomID, ptes []pte, meter *vclock.Meter) error {
	c := runCursor{m: m, ptes: ptes}
	m.lockBatch()
	defer m.mu.Unlock()
	for c.next() {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				return c.fail(frameErr(ErrDoubleFree, c.mfn(j)))
			}
			if f.pledges == 0 {
				return c.fail(frameErr(ErrNotPledged, c.mfn(j)))
			}
		}
		if short {
			return c.fail(frameErr(ErrDoubleFree, c.mfn(len(fr))))
		}
	}
	if err := c.badFrame(); err != nil {
		return err
	}
	converted := 0
	for c.rewind(); c.next(); {
		fr, _ := c.frames()
		for j := range fr {
			f := &fr[j]
			if f.owner != DomIDCOW {
				// The previous owner keeps its mapping and becomes the
				// first sharer; the adopter's reference is added below.
				m.dropUsageLocked(f.owner, 1)
				f.owner = DomIDCOW
				m.usedByDom[DomIDCOW]++
				converted++
			}
			f.refcount++
			f.pledges--
		}
	}
	if converted > 0 {
		m.shared += converted
		meter.Charge(meter.Costs().PageShare, converted)
	}
	return nil
}

// lazyState is the per-child bookkeeping of one lazy clone: the streamer
// goroutine's lifecycle channels, its detached meter and sub-trace (absorbed
// into the clone operation's trace by WaitLazy callers), and the
// materialization counters. The counters and err are guarded by the owning
// Space's mu; wantFault is the only cross-goroutine signal read without it.
type lazyState struct {
	cancel     chan struct{}
	cancelOnce sync.Once
	done       chan struct{}

	meter  *vclock.Meter
	sub    *obs.Trace
	ctx    obs.OpCtx
	faults *fault.Registry

	// wantFault is incremented around demand accesses so the streamer
	// yields between chunks instead of making faulting vCPUs wait behind
	// bulk work.
	wantFault atomic.Int32

	remaining       int
	streamedPages   int
	streamedExtents int
	demandPages     int
	merged          bool
	err             error
}

// StreamStats reports the progress of a lazy clone's materialization.
type StreamStats struct {
	Remaining       int // lazy entries not yet materialized
	StreamedPages   int // pages materialized by the background streamer
	StreamedExtents int // chunks the streamer processed
	DemandPages     int // pages materialized by demand faults
}

// StreamStats returns the lazy materialization counters (zero for eager
// spaces).
func (s *Space) StreamStats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.lazy
	if ls == nil {
		return StreamStats{}
	}
	return StreamStats{
		Remaining:       ls.remaining,
		StreamedPages:   ls.streamedPages,
		StreamedExtents: ls.streamedExtents,
		DemandPages:     ls.demandPages,
	}
}

// UnmappedFaults returns the number of demand (unmapped) faults resolved so
// far, the lazy-mode analogue of Faults.
func (s *Space) UnmappedFaults() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unmapped
}

// startStream launches the background streamer for a freshly built lazy
// child. It detaches a private meter and sub-trace from ctx so the streamer
// charges deterministically off the fault-side meters; WaitLazy hands both
// back for the caller to merge.
func (s *Space) startStream(ctx obs.OpCtx, remaining int) {
	dctx, sub := ctx.Detach()
	ls := &lazyState{
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
		meter:     dctx.Meter(),
		sub:       sub,
		ctx:       dctx,
		faults:    ctx.Faults(nil),
		remaining: remaining,
	}
	s.lazy = ls
	s.lazyOn.Store(true)
	go s.streamLoop(ls)
}

// streamLoop walks the child's lazy extents in ascending pfn order — the
// deterministic order the clone walk recorded them in — materializing up to
// streamChunk pages per locked batch. Between batches it yields to
// demand faults (wantFault) and to cancellation. Pages consumed by demand
// faults in the meantime are simply skipped: remaining counts both paths.
// The loop never reads the wall clock, so the determinism analyzer needs no
// waiver for it.
func (s *Space) streamLoop(ls *lazyState) {
	defer close(ls.done)
	cursor := 0
	for {
		select {
		case <-ls.cancel:
			return
		default:
		}
		for ls.wantFault.Load() > 0 {
			select {
			case <-ls.cancel:
				return
			default:
				runtime.Gosched()
			}
		}
		s.mu.Lock()
		if s.retired {
			s.mu.Unlock()
			return
		}
		if ls.remaining == 0 {
			if err := ls.faults.Check(fault.PointMemLazyFinalize); err != nil && ls.err == nil {
				ls.err = err
			}
			s.lazyOn.Store(false)
			s.mu.Unlock()
			return
		}
		for cursor < len(s.ptes) && !s.ptes[cursor].lazy() {
			cursor++
		}
		if cursor >= len(s.ptes) {
			// Demand faults consumed everything past the cursor; the next
			// iteration observes remaining == 0 and finalizes.
			s.mu.Unlock()
			continue
		}
		hi := cursor
		for hi < len(s.ptes) && s.ptes[hi].lazy() && hi-cursor < streamChunk {
			hi++
		}
		if err := ls.faults.Check(fault.PointMemStreamExtent); err != nil {
			ls.err = err
			s.lazyOn.Store(false)
			s.mu.Unlock()
			return
		}
		_, span := ls.ctx.StartSpan("stream-extent")
		ext := s.ptes[cursor:hi]
		if err := s.mem.adoptPledged(s.dom, ext, ls.meter); err != nil {
			span.End()
			ls.err = err
			s.lazyOn.Store(false)
			s.mu.Unlock()
			return
		}
		n := hi - cursor
		ls.meter.Charge(ls.meter.Costs().PTEntryClone, n)
		ls.meter.Charge(ls.meter.Costs().P2MEntryClone, n)
		for i := range ext {
			ext[i] = ext[i].materialized()
		}
		ls.remaining -= n
		ls.streamedPages += n
		ls.streamedExtents++
		span.End()
		if mm := s.mem.metrics.Load(); mm != nil {
			mm.streamExtents.Inc()
		}
		cursor = hi
		s.mu.Unlock()
	}
}

// demandFaultLocked materializes one lazy page on behalf of an access that
// hit it: the pledge is adopted (converting the source frame to dom_cow if
// the streamer has not reached it) and the deferred page-table and p2m
// entries are charged, so a fully materialized lazy child has charged
// exactly what its eager sibling did at clone time. s.mu must be held.
func (s *Space) demandFaultLocked(ctx obs.OpCtx, pfn PFN, p *pte) error {
	ls := s.lazy
	if ls == nil {
		return fmt.Errorf("mem: pfn %d is lazy but space %d has no stream state", pfn, s.dom)
	}
	fctx, span := ctx.StartSpan("demand-fault")
	defer span.End()
	if err := ls.faults.Check(fault.PointMemUnmappedFault); err != nil {
		return err
	}
	meter := fctx.Meter()
	if meter == nil {
		// Legacy meterless accesses charge the streamer's meter instead,
		// so the page's materialization cost is never dropped; both
		// charge under s.mu.
		meter = ls.meter
	}
	if err := s.mem.adoptPledged(s.dom, s.ptes[pfn:pfn+1], meter); err != nil {
		return err
	}
	meter.Charge(meter.Costs().PTEntryClone, 1)
	meter.Charge(meter.Costs().P2MEntryClone, 1)
	*p = p.materialized()
	ls.remaining--
	ls.demandPages++
	s.unmapped++
	if mm := s.mem.metrics.Load(); mm != nil {
		mm.unmappedFaults.Inc()
	}
	return nil
}

// demandHint marks a demand access in flight so the streamer yields at its
// next chunk boundary. The returned release must be called when the access
// completes; both are nil/no-op for eager spaces, whose hot paths pay one
// atomic load.
func (s *Space) demandHint() *lazyState {
	if !s.lazyOn.Load() {
		return nil
	}
	ls := s.lazy
	if ls == nil {
		return nil
	}
	ls.wantFault.Add(1)
	return ls
}

// WaitLazy blocks until the background streamer has materialized every lazy
// page (or failed, or was cancelled) and hands back its detached meter and
// sub-trace exactly once for the caller to merge. Subsequent calls return
// only the recorded error. Eager spaces return all nil immediately.
func (s *Space) WaitLazy() (*vclock.Meter, *obs.Trace, error) {
	ls := s.lazy
	if ls == nil {
		return nil, nil, nil
	}
	<-ls.done
	s.mu.Lock()
	defer s.mu.Unlock()
	err := ls.err
	if err == nil && ls.remaining > 0 {
		err = ErrStreamPending
	}
	if ls.merged {
		return nil, nil, err
	}
	ls.merged = true
	return ls.meter, ls.sub, err
}

// CancelStream stops the background streamer, if one is running, and waits
// for it to exit. Pages already materialized stay; the rest keep their
// pledges until the space is released. Safe to call multiple times and on
// eager spaces.
func (s *Space) CancelStream() {
	ls := s.lazy
	if ls == nil {
		return
	}
	ls.cancelOnce.Do(func() { close(ls.cancel) })
	<-ls.done
}
