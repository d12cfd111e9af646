package mem

import (
	"fmt"

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
	// unmapped-lazy pte state, to be materialized by demand faults and by
	// Space.Drain. See DESIGN.md §13.
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

// streamChunk is the number of consecutive lazy pages one Drain step
// materializes, under one stream-extent span and one fault check.
const streamChunk = 128

// pledgePTEs records one lazy-child claim on every frame referenced by the
// run. A pledge freezes the frame's clone-time contents (every write path
// converts the frame to dom_cow and copies away first) without transferring
// ownership or charging virtual time — the transfer and its PageShare charge
// are deferred to whoever materializes the page first. A failed call leaves
// the pool untouched: the walk pledges as it validates, and an entry that
// fails takes the pledges of every entry before it back.
//
//nephele:noalloc
func (m *Memory) pledgePTEs(ptes []pte) error {
	stop := addPledges(m.chunks, MFN(m.total), ptes)
	if stop == len(ptes) {
		return nil
	}
	for _, e := range ptes[:stop] {
		m.frame(e.mfn()).pledges--
	}
	return stopErr(ptes[stop:], pteMFNMask, m.total, ErrDoubleFree)
}

// addPledges is pledgePTEs' walk: it adds a pledge to each entry's frame for
// as long as the entry is in range and its frame in use, and returns the
// index of the entry it stopped at (len(ptes) if none). It makes no call.
//
//nephele:noalloc
func addPledges(chunks [][]frame, total MFN, ptes []pte) int {
	for i, e := range ptes {
		mfn := e.mfn()
		if mfn >= total {
			return i
		}
		ch, off := chunks[mfn>>frameChunkShift], mfn&frameChunkMask
		if off >= MFN(len(ch)) || !ch[off].inUse() {
			return i
		}
		ch[off].pledges++
	}
	return len(ptes)
}

// cancelPledged drops one pledge per frame referenced by the run without
// materializing anything (lazy-child teardown). Zombie frames whose last
// pledge goes are freed. Like ReleaseN, bad frames are recorded and skipped
// and the first error is returned after the whole run is processed, an
// out-of-range MFN outranking a per-frame error.
//
//nephele:noalloc
func (m *Memory) cancelPledged(ptes []pte) error {
	chunks, total := m.chunks, MFN(m.total)
	bad, failed := -1, -1
	freed := 0
	for i, e := range ptes {
		mfn := e.mfn()
		if mfn >= total {
			if bad < 0 {
				bad = i
			}
			continue
		}
		f := inUseFrame(chunks, mfn)
		if f == nil || f.pledges == 0 {
			if failed < 0 {
				failed = i
			}
			continue
		}
		f.pledges--
		if f.pledges == 0 && f.owner == DomIDCOW && f.refcount == 0 {
			freed++
			m.resetFrame(f, mfn)
		}
	}
	m.shared -= freed
	m.free += freed
	return skipErr(ptes, pteMFNMask, bad, failed, ErrNotPledged)
}

// adoptPledged materializes one pledge per frame referenced by the run on
// behalf of dom: the pledge converts into a real sharer reference. Frames
// still owned by a live domain are transferred to dom_cow here — this is
// the deferred PageShare the eager path charged at clone time, so the
// family-wide conversion cost stays exactly one PageShare per frame
// regardless of when (or by whom) the frame is first materialized. Frames
// already owned by dom_cow (including zombies) just gain a reference at no
// virtual cost, mirroring the eager second-clone fast path.
//
// Like share it validates and counts in one walk and converts the
// frames a domain still owns once every entry has passed, in a pass up to
// the last entry that named one; an entry that fails takes back what the
// entries before it did, so a failed call leaves the pool untouched.
//
//nephele:noalloc
func (m *Memory) adoptPledged(ctx obs.OpCtx, dom DomID, ptes []pte) error {
	stop, hi := adoptRefs(m.chunks, MFN(m.total), ptes)
	if stop < len(ptes) {
		return m.adoptFailed(ptes, stop)
	}
	converted := 0
	for _, e := range ptes[:hi] {
		if f := m.frame(e.mfn()); f.owner != DomIDCOW {
			// The previous owner keeps its mapping and becomes the first
			// sharer; the adopter's reference was added above.
			m.reown(f, DomIDCOW)
			converted++
		}
	}
	if converted > 0 {
		meter := ctx.Meter()
		meter.Charge(meter.Costs().PageShare, converted)
	}
	return nil
}

// adoptRefs is adoptPledged's walk: it turns one pledge of each entry's
// frame into a sharer reference for as long as the entry is in range and
// its frame in use and pledged. It returns the index of the entry it
// stopped at (len(ptes) if none) and one past the last entry naming a frame
// a domain owns (0 if none). It makes no call.
//
//nephele:noalloc
func adoptRefs(chunks [][]frame, total MFN, ptes []pte) (stop, hi int) {
	for i, e := range ptes {
		mfn := e.mfn()
		if mfn >= total {
			return i, hi
		}
		ch, off := chunks[mfn>>frameChunkShift], mfn&frameChunkMask
		if off >= MFN(len(ch)) || !ch[off].inUse() || ch[off].pledges == 0 {
			return i, hi
		}
		f := &ch[off]
		if f.owner != DomIDCOW {
			hi = i + 1
		}
		f.refcount++
		f.pledges--
	}
	return len(ptes), hi
}

// adoptFailed undoes an adopt walk that stopped at entry i — every entry
// before it turned one pledge of its frame into a reference — and returns
// why it stopped.
//
//nephele:noalloc
func (m *Memory) adoptFailed(ptes []pte, i int) error {
	for _, e := range ptes[:i] {
		f := m.frame(e.mfn())
		f.refcount--
		f.pledges++
	}
	if _, bad := firstBad(ptes[i:], pteMFNMask, m.total); !bad && inUseFrame(m.chunks, ptes[i].mfn()) != nil {
		return frameErr(ErrNotPledged, ptes[i].mfn())
	}
	return stopErr(ptes[i:], pteMFNMask, m.total, ErrDoubleFree)
}

// lazyState is the per-child bookkeeping of one lazy clone: the private
// meter meterless accesses charge, the drain cursor and the
// materialization counters.
type lazyState struct {
	// meter takes the materialization charges of accesses that carry no
	// meter; the next Drain moves its time onto the drainer's meter.
	meter *vclock.Meter

	// next is the lowest pfn that may still be lazy: materialization is
	// one-way, so the drain never looks below it again.
	next            int
	remaining       int
	streamedPages   int
	streamedExtents int
	demandPages     int
	// stopped marks a stream that drains no further: it finalized, failed
	// (err) or was cancelled.
	stopped bool
	err     error
}

// StreamStats reports the progress of a lazy clone's materialization.
type StreamStats struct {
	Remaining       int // lazy entries not yet materialized
	StreamedPages   int // pages materialized by Drain
	StreamedExtents int // chunks Drain processed
	DemandPages     int // pages materialized by demand faults
}

// StreamStats returns the lazy materialization counters (zero for eager
// spaces).
func (s *Space) StreamStats() StreamStats {
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
	return s.unmapped
}

// startStream installs the stream state of a freshly built lazy child: a
// private meter on the clone's cost table for meterless accesses, which the
// next Drain merges.
func (s *Space) startStream(costs *vclock.CostModel, remaining int) {
	s.lazy = &lazyState{
		meter:     vclock.NewMeter(costs),
		remaining: remaining,
	}
}

// Drain materializes every lazy entry still deferred, on ctx's meter and
// trace: first the time meterless accesses charged since the last drain
// moves onto ctx's meter, then the walk goes in ascending pfn order — the
// order the clone walk recorded the entries in — up to streamChunk pages
// per step, one stream-extent span each. Pages demand faults took
// in the meantime are skipped. Once nothing remains the stream finalizes.
// A failure stops the stream for good: it is recorded and returned again
// by every later call, as is ErrStreamPending for a cancelled or released
// stream with pages left. Eager spaces return nil at once.
func (s *Space) Drain(ctx obs.OpCtx) error {
	ls := s.lazy
	if ls == nil {
		return nil
	}
	ctx.Meter().Add(ls.meter.Elapsed())
	ls.meter.Reset()
	for {
		done, err := s.drainChunk(ctx, ls)
		if done {
			return err
		}
	}
}

// drainChunk runs one step of Drain: it materializes the next chunk
// of lazy entries, or finalizes the stream, or reports why the stream is
// over.
func (s *Space) drainChunk(ctx obs.OpCtx, ls *lazyState) (done bool, err error) {
	if ls.stopped || s.retired {
		if ls.err == nil && ls.remaining > 0 {
			return true, ErrStreamPending
		}
		return true, ls.err
	}
	if ls.remaining == 0 {
		ls.stopped = true
		ls.err = s.mem.faults.Check(fault.PointMemLazyFinalize)
		return true, ls.err
	}
	// remaining > 0 and every lazy entry sits at or past next, so the
	// scan finds one.
	lo := ls.next
	for !s.ptes[lo].lazy() {
		lo++
	}
	hi := lo
	for hi < len(s.ptes) && s.ptes[hi].lazy() && hi-lo < streamChunk {
		hi++
	}
	ls.next = hi
	if err := s.mem.faults.Check(fault.PointMemStreamExtent); err != nil {
		ls.stopped, ls.err = true, err
		return true, err
	}
	_, span := ctx.StartSpan("stream-extent")
	defer span.End()
	ext := s.ptes[lo:hi]
	if err := s.mem.adoptPledged(ctx, s.dom, ext); err != nil {
		ls.stopped, ls.err = true, err
		return true, err
	}
	n := hi - lo
	meter := ctx.Meter()
	meter.Charge(meter.Costs().PTEntryClone, n)
	meter.Charge(meter.Costs().P2MEntryClone, n)
	for i := range ext {
		ext[i] = ext[i].materialized()
	}
	ls.remaining -= n
	ls.streamedPages += n
	ls.streamedExtents++
	if mm := s.mem.metrics; mm != nil {
		mm.streamExtents.Inc()
	}
	return false, nil
}

// demandFault materializes one lazy page on behalf of an access that
// hit it: the pledge is adopted (converting the source frame to dom_cow if
// no drain has reached it) and the deferred page-table and p2m
// entries are charged, so a fully materialized lazy child has charged
// exactly what its eager sibling did at clone time.
func (s *Space) demandFault(ctx obs.OpCtx, pfn PFN, p *pte) error {
	ls := s.lazy
	if ls == nil {
		return fmt.Errorf("mem: pfn %d is lazy but space %d has no stream state", pfn, s.dom)
	}
	fctx, span := ctx.StartSpan("demand-fault")
	defer span.End()
	if err := s.mem.faults.Check(fault.PointMemUnmappedFault); err != nil {
		return err
	}
	if fctx.Meter() == nil {
		// Meterless accesses charge the stream's private meter instead,
		// which the next Drain moves onto its caller, so the page's
		// materialization cost is never dropped.
		fctx = fctx.WithMeter(ls.meter)
	}
	if err := s.mem.adoptPledged(fctx, s.dom, s.ptes[pfn:pfn+1]); err != nil {
		return err
	}
	meter := fctx.Meter()
	meter.Charge(meter.Costs().PTEntryClone, 1)
	meter.Charge(meter.Costs().P2MEntryClone, 1)
	*p = p.materialized()
	ls.remaining--
	ls.demandPages++
	s.unmapped++
	if mm := s.mem.metrics; mm != nil {
		mm.unmappedFaults.Inc()
	}
	return nil
}

// CancelStream stops the stream: a later Drain materializes nothing more
// and returns ErrStreamPending while pages remain. Pages already
// materialized stay, demand faults still materialize the rest on access,
// and the unmaterialized ones keep their pledges until the space is
// released. Safe to call multiple times and on eager spaces.
func (s *Space) CancelStream() {
	ls := s.lazy
	if ls == nil {
		return
	}
	ls.stopped = true
}
