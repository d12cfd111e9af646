package mem

import (
	"fmt"
	"sync"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// PageKind classifies a guest page for cloning purposes. Most pages are
// regular and become COW-shared; private kinds are duplicated or rewritten
// for each child (§4.1, §5.2).
type PageKind uint8

const (
	// KindRegular pages are shared copy-on-write between family members.
	KindRegular PageKind = iota
	// KindPageTable pages hold the guest page table; prior work shows
	// cloning is dominated by copying these when the VM holds tens of
	// megabytes or more. Always duplicated and rewritten.
	KindPageTable
	// KindStartInfo is the Xen start_info directory page. Rewritten for
	// each child (it references the parent's private frames).
	KindStartInfo
	// KindConsole is the console ring page: duplicated but NOT copied —
	// the child console starts empty so parent output is not replayed
	// into the child log (§4.2).
	KindConsole
	// KindXenstore is the Xenstore interface ring page: duplicated fresh.
	KindXenstore
	// KindIORing pages back split-driver shared rings. The clone policy
	// is per device type; by default they are duplicated with contents
	// copied (network rings), and device code may ask for fresh frames
	// instead (console rings).
	KindIORing
	// KindP2M pages hold the physical-to-machine map, rewritten with the
	// child's new machine frame numbers.
	KindP2M
	// KindIDC pages back inter-domain communication regions (§5.2.2):
	// they are granted to DOMID_CHILD and, on clone, shared WITHOUT
	// write protection — parent and children genuinely share them, like
	// a POSIX shared-memory segment, so pipes and socket pairs work.
	KindIDC
)

func (k PageKind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindPageTable:
		return "pagetable"
	case KindStartInfo:
		return "startinfo"
	case KindConsole:
		return "console"
	case KindXenstore:
		return "xenstore"
	case KindIORing:
		return "ioring"
	case KindP2M:
		return "p2m"
	case KindIDC:
		return "idc"
	default:
		return fmt.Sprintf("PageKind(%d)", uint8(k))
	}
}

// pte is the per-page mapping state of an address space, one 64-bit word like
// the x86-64 entry it models (DESIGN.md §10, "Table layouts"): the machine
// frame number in the low 52 bits, the four state flags above it and the
// PageKind in the top byte. New takes a byte count, so a pool holds fewer than
// 2^52 frames and every MFN an entry can name fits the field.
//
// A lazy entry is the unmapped state of lazy cloning (DESIGN.md §13): the
// child holds a pledge on the parent's frame instead of a sharer reference,
// and the MFN names that source frame so demand faults and Drain know what to
// materialize from. lazy entries are present (reads resolve them
// transparently) but never carry cow until materialized.
type pte uint64

const (
	pteMFNBits     = 52
	pteMFNMask pte = 1<<pteMFNBits - 1

	pteKindShift     = pteMFNBits + 4
	pteKindMask  pte = 0xFF << pteKindShift
)

// The four flags sit between the MFN and the kind.
const (
	ptePresent  pte = 1 << (pteMFNBits + iota)
	pteWritable     // the guest may store through the mapping
	pteCOW          // write-protected because the frame is family-shared
	pteLazy         // unmaterialized lazy-clone entry; the MFN is the pledged source frame

	// pteExtentMask selects what two neighbouring present entries must agree
	// on to be cloned as one extent: kind, writable and cow.
	pteExtentMask = ptePresent | pteWritable | pteCOW | pteKindMask
)

// makePTE packs an entry from its fields; flags is any union of the four flag
// bits.
//
//nephele:noalloc
func makePTE(mfn MFN, flags pte, kind PageKind) pte {
	return pte(mfn)&pteMFNMask | flags | pte(kind)<<pteKindShift
}

//nephele:noalloc
func (p pte) mfn() MFN { return MFN(p & pteMFNMask) }

//nephele:noalloc
func (p pte) kind() PageKind { return PageKind(p >> pteKindShift) }

//nephele:noalloc
func (p pte) present() bool { return p&ptePresent != 0 }

//nephele:noalloc
func (p pte) writable() bool { return p&pteWritable != 0 }

//nephele:noalloc
func (p pte) cow() bool { return p&pteCOW != 0 }

//nephele:noalloc
func (p pte) lazy() bool { return p&pteLazy != 0 }

// withMFN and withKind return the entry with that one field replaced. Flags
// are set and cleared with |= and &^= on the word itself, so every update of
// an entry is one store.
//
//nephele:noalloc
func (p pte) withMFN(mfn MFN) pte { return p&^pteMFNMask | pte(mfn)&pteMFNMask }

//nephele:noalloc
func (p pte) withKind(kind PageKind) pte { return p&^pteKindMask | pte(kind)<<pteKindShift }

// materialized returns what a lazy entry becomes once its frame is mapped: no
// longer lazy, and COW exactly when writable.
//
//nephele:noalloc
func (p pte) materialized() pte {
	p &^= pteLazy | pteCOW
	if p.writable() {
		p |= pteCOW
	}
	return p
}

// ptePool recycles page-table slices from released spaces into newly built
// ones. A released clone's table is the single biggest piece of garbage on
// the clone path (128 KiB for a 64 MB guest), and collecting it costs the
// host more than building it; recycling keeps steady-state clone
// churn — the fuzzing and FaaS patterns, where children live briefly —
// allocation-free. Slices from the pool hold stale entries, so every
// consumer fully overwrites the prefix it slices off.
var ptePool sync.Pool

func getPTEs(n int) []pte {
	if v := ptePool.Get(); v != nil {
		s := *(v.(*[]pte))
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]pte, n)
}

func putPTEs(s []pte) {
	if cap(s) == 0 {
		return
	}
	ptePool.Put(&s)
}

// Space is one domain's guest-physical address space under direct paging:
// a p2m map from PFNs to machine frames plus per-page access state. It also
// accounts for the page-table frames and p2m frames that make the mapping
// itself, since duplicating those dominates clone time.
type Space struct {
	mem    *Memory
	dom    DomID
	npages int // immutable page count, valid even after release
	ptes   []pte
	// ptFrames and p2mFrames are the metadata frames backing the page
	// table and the p2m map. They are private memory: never shared.
	ptFrames  []MFN
	p2mFrames []MFN
	retired   bool

	// faults counts resolved COW write faults, for experiment stats.
	faults int
	// unmapped counts resolved demand (unmapped) faults on lazy entries.
	unmapped int
	// dirty records the pfns privatized by COW faults since the last
	// ResetOp, so clone_reset restores exactly the dirtied set instead of
	// scanning the whole space. dirtySet deduplicates it: a pfn that faults
	// again between resets (the space was cloned in between, which
	// write-protects it anew) appears once in the work list.
	dirty    []PFN
	dirtySet map[PFN]struct{}

	// lazy is the stream state of a lazily cloned child (nil otherwise);
	// it is set before the space is published and never replaced.
	// lazyPTEs records that the table held lazy entries so release knows
	// to cancel outstanding pledges.
	lazy     *lazyState
	lazyPTEs bool
}

// PTFrameCount returns the number of page-table frames needed to map n
// pages (one frame per 512 mappings per level; we account a two-level
// overhead factor like x86-64 with 4 KiB pages dominated by L1).
func PTFrameCount(n int) int {
	if n == 0 {
		return 1
	}
	l1 := (n + PagesPerPTFrame - 1) / PagesPerPTFrame
	l2 := (l1 + PagesPerPTFrame - 1) / PagesPerPTFrame
	return l1 + l2 + 1 // + root
}

// P2MFrameCount returns the number of frames holding a p2m map for n pages
// (8 bytes per entry).
func P2MFrameCount(n int) int {
	if n == 0 {
		return 1
	}
	return (n*8 + PageSize - 1) / PageSize
}

// NewSpace creates an address space for dom with capacity pages guest
// frames, allocating and populating all of them (unikernels map their whole
// memory at boot), plus the page-table and p2m frames.
func NewSpace(ctx obs.OpCtx, m *Memory, dom DomID, pages int) (*Space, error) {
	s := &Space{mem: m, dom: dom, npages: pages, ptes: getPTEs(pages)}
	if err := allocInto(ctx, m, dom, s.ptes); err != nil {
		putPTEs(s.ptes)
		return nil, err
	}
	for i, p := range s.ptes {
		s.ptes[i] = makePTE(p.mfn(), ptePresent|pteWritable, KindRegular)
	}
	var err error
	if s.ptFrames, err = m.AllocN(ctx, dom, PTFrameCount(pages)); err != nil {
		s.Release()
		return nil, err
	}
	if s.p2mFrames, err = m.AllocN(ctx, dom, P2MFrameCount(pages)); err != nil {
		s.Release()
		return nil, err
	}
	return s, nil
}

// Dom returns the owning domain ID.
func (s *Space) Dom() DomID { return s.dom }

// Pages returns the number of guest pages in the space.
func (s *Space) Pages() int {
	return s.npages
}

// Faults returns the number of COW write faults resolved so far.
func (s *Space) Faults() int {
	return s.faults
}

// SetKind tags a page so the clone logic treats it as private memory.
func (s *Space) SetKind(pfn PFN, kind PageKind) error {
	p, err := s.pteAt(pfn)
	if err != nil {
		return err
	}
	*p = p.withKind(kind)
	return nil
}

// Kind reports a page's classification.
func (s *Space) Kind(pfn PFN) (PageKind, error) {
	p, err := s.pteAt(pfn)
	if err != nil {
		return 0, err
	}
	return p.kind(), nil
}

// SetWritable changes a page's writability (text pages are mapped
// read-only at guest boot).
func (s *Space) SetWritable(pfn PFN, w bool) error {
	p, err := s.pteAt(pfn)
	if err != nil {
		return err
	}
	if w {
		*p |= pteWritable
	} else {
		*p &^= pteWritable
	}
	return nil
}

// MFNOf translates a guest pfn to its machine frame.
func (s *Space) MFNOf(pfn PFN) (MFN, error) {
	p, err := s.pteAt(pfn)
	if err != nil {
		return 0, err
	}
	return p.mfn(), nil
}

// IsCOW reports whether the page is currently write-protected for sharing.
func (s *Space) IsCOW(pfn PFN) (bool, error) {
	p, err := s.pteAt(pfn)
	if err != nil {
		return false, err
	}
	return p.cow(), nil
}

func (s *Space) pteAt(pfn PFN) (*pte, error) {
	if s.retired {
		return nil, ErrSpaceRetired
	}
	if int(pfn) >= len(s.ptes) {
		return nil, fmt.Errorf("%w: pfn %d of %d", ErrBadPFN, pfn, len(s.ptes))
	}
	p := &s.ptes[pfn]
	if !p.present() {
		return nil, fmt.Errorf("%w: pfn %d not present", ErrBadPFN, pfn)
	}
	return p, nil
}

// Read copies data from guest page pfn at off, materializing a lazy entry
// first. A meterless read on a lazy page charges the materialization to the
// stream's private meter, which the next Drain hands to its caller; use
// ReadOp to charge the faulting operation instead.
func (s *Space) Read(pfn PFN, off int, buf []byte) error {
	return s.ReadOp(obs.OpCtx{}, pfn, off, buf)
}

// ReadOp is Read with an operation context: a demand fault on a lazy entry
// opens a demand-fault span and charges the context's meter.
func (s *Space) ReadOp(ctx obs.OpCtx, pfn PFN, off int, buf []byte) error {
	p, err := s.pteAt(pfn)
	if err != nil {
		return err
	}
	if p.lazy() {
		if err := s.demandFault(ctx, pfn, p); err != nil {
			return err
		}
	}
	mfn := p.mfn()
	return s.mem.Read(mfn, off, buf)
}

// Write stores data into guest page pfn at off, resolving a COW fault
// first when the page is family-shared.
func (s *Space) Write(pfn PFN, off int, buf []byte, meter *vclock.Meter) error {
	return s.WriteOp(obs.Ctx(meter), pfn, off, buf)
}

// WriteOp is Write with an operation context: a lazy entry is materialized
// (demand-fault span) before the regular COW break, both charged to the
// context's meter.
func (s *Space) WriteOp(ctx obs.OpCtx, pfn PFN, off int, buf []byte) error {
	mfn, err := s.writableMFN(ctx, pfn)
	if err != nil {
		return err
	}
	return s.mem.Write(mfn, off, buf)
}

// WritePage makes page the whole contents of guest page pfn by reference
// (Memory.WritePage: the caller keeps the slice and nobody writes through
// it again), after the same fault handling as Write. It is how an image's
// or a cache chunk's pages reach a restored domain without a copy.
func (s *Space) WritePage(ctx obs.OpCtx, pfn PFN, page []byte) error {
	mfn, err := s.writableMFN(ctx, pfn)
	if err != nil {
		return err
	}
	return s.mem.WritePage(mfn, page)
}

// writableMFN resolves pfn to a frame the space may store into: a lazy
// entry is materialized, a COW mapping broken, a read-only one refused.
func (s *Space) writableMFN(ctx obs.OpCtx, pfn PFN) (MFN, error) {
	p, err := s.pteAt(pfn)
	if err != nil {
		return 0, err
	}
	if p.lazy() {
		if err := s.demandFault(ctx, pfn, p); err != nil {
			return 0, err
		}
	}
	if p.cow() {
		if err := s.breakCOW(ctx, pfn, p); err != nil {
			return 0, err
		}
	} else if !p.writable() {
		return 0, fmt.Errorf("%w: pfn %d", ErrReadOnly, pfn)
	}
	return p.mfn(), nil
}

// TouchCOW forces the fault path for a page without writing data, exactly
// what the clone_cow CLONEOP subcommand does for the fuzzer's breakpoint
// pages (§7.2). On a lazy entry it materializes the page first (the
// unmapped-fault path), then breaks the COW protection as usual.
func (s *Space) TouchCOW(ctx obs.OpCtx, pfn PFN) error {
	p, err := s.pteAt(pfn)
	if err != nil {
		return err
	}
	if p.lazy() {
		if err := s.demandFault(ctx, pfn, p); err != nil {
			return err
		}
	}
	if !p.cow() {
		return nil
	}
	return s.breakCOW(ctx, pfn, p)
}

// breakCOW privatizes a COW-marked page: the write-fault dispatch all
// write paths share.
func (s *Space) breakCOW(ctx obs.OpCtx, pfn PFN, p *pte) error {
	newMFN, err := s.mem.resolveCOW(ctx, s.dom, p.mfn())
	if err != nil {
		return err
	}
	*p = p.withMFN(newMFN)&^pteCOW | pteWritable
	s.faults++
	if mm := s.mem.metrics; mm != nil {
		mm.cowFaults.Inc()
	}
	s.markDirty(pfn)
	return nil
}

// markDirty records a privatized pfn for the next ResetOp,
// deduplicating repeat faults on the same page.
func (s *Space) markDirty(pfn PFN) {
	if s.dirtySet == nil {
		s.dirtySet = make(map[PFN]struct{})
	}
	if _, dup := s.dirtySet[pfn]; dup {
		return
	}
	s.dirtySet[pfn] = struct{}{}
	s.dirty = append(s.dirty, pfn)
}

// CloneStats reports the work performed by one clone operation.
type CloneStats struct {
	SharedPages   int // regular pages marked COW / re-shared
	PrivateCopies int // private pages duplicated with contents
	PrivateFresh  int // private pages given fresh zero frames
	PTEntries     int // page-table mappings written for the child
	P2MEntries    int // p2m entries rebuilt for the child
	MetaFrames    int // page-table + p2m frames allocated for the child
	Extents       int // same-state runs the clone walk batched over
	Deferred      int // lazy entries left unmaterialized (CloneLazy only)
}

// CloneOp produces a child address space for childDom following the paper's
// memory-cloning rules: regular writable pages are shared copy-on-write via
// dom_cow; read-only pages are shared without write protection changes;
// private pages (page tables, start_info, rings, p2m, ...) are duplicated
// (optionally with contents) or handed fresh frames; the child's page table
// and p2m are rebuilt entry by entry. The parent's regular pages also
// become COW in the parent. copyRing controls whether KindIORing contents
// are copied (network devices) or left fresh (console).
func (s *Space) CloneOp(ctx obs.OpCtx, childDom DomID, copyRing bool) (*Space, CloneStats, error) {
	return s.CloneOpMode(ctx, childDom, copyRing, CloneEager)
}

// CloneOpMode is CloneOp with an explicit clone mode. Under CloneLazy the
// regular extents are not shared at clone time: the parent's frames are
// pledged (no ownership transfer, no charge) and the child's entries enter
// the lazy state. They are materialized afterwards only by the demand-fault
// paths in Read/Write/TouchCOW, on the faulting operation's meter, and by
// Drain, on its caller's, each charging the deferred
// PageShare/PTEntryClone/P2MEntryClone exactly once per page. Private kinds,
// IDC regions and the metadata frames are always cloned eagerly (they are
// the hot set a child needs to run at all). A space whose own lazy entries
// are not yet fully materialized cannot be cloned (ErrStreamPending): a
// fresh lazy child must be drained first.
func (s *Space) CloneOpMode(ctx obs.OpCtx, childDom DomID, copyRing bool, mode CloneMode) (*Space, CloneStats, error) {
	meter := ctx.Meter()
	var st CloneStats
	if s.retired {
		return nil, st, ErrSpaceRetired
	}
	if s.lazy != nil && s.lazy.remaining > 0 {
		return nil, st, ErrStreamPending
	}

	// The walk below only mutates the parent (COW bits, sharer counts);
	// the child's table is produced afterwards with one bulk copy of the
	// parent's entries. That copy is exact for shared extents — once the
	// parent's COW bits are updated, the desired child entry is
	// bit-identical to the parent's — so only extents that received fresh
	// private frames need their mappings patched. fixups records those; a
	// fixup with nil mfns clears a stale COW bit the child must not
	// inherit (a protected entry since made read-only or re-tagged).
	type fixup struct {
		lo, hi int
		mfns   []MFN
	}
	var fixups []fixup
	// lazyRuns records the pfn ranges deferred under CloneLazy, in
	// ascending order: the child's entries there become lazy, and the
	// unwind cancels their pledges instead of dropping sharer references
	// the child never took.
	var lazyRuns []fixup
	done := 0 // entries below this index have taken their child references
	var wspan, bspan obs.Span
	fail := func(err error) (*Space, CloneStats, error) {
		bspan.End()
		wspan.End()
		// Unwind the half-built child: shared extents are reconstructed
		// from the parent's entries, private frames from the fixups.
		// ReleaseN gives them the same dispatch child.Release() would
		// (drop a sharer reference, free an owned frame). Deferred lazy
		// runs are excluded — their child references are pledges, and
		// those are cancelled separately below.
		var undo []MFN
		li := 0
		for i := 0; i < done; i++ {
			for li < len(lazyRuns) && lazyRuns[li].hi <= i {
				li++
			}
			if li < len(lazyRuns) && lazyRuns[li].lo <= i {
				continue
			}
			p := s.ptes[i]
			if p.present() && (p.kind() == KindIDC || p.kind() == KindRegular) {
				undo = append(undo, p.mfn())
			}
		}
		for _, fx := range fixups {
			undo = append(undo, fx.mfns...)
		}
		s.mem.ReleaseN(childDom, undo)
		for _, lr := range lazyRuns {
			s.mem.cancelPledged(s.ptes[lr.lo:lr.hi])
		}
		return nil, st, err
	}

	// Walk the space as run-length extents of identical (kind, writable,
	// cow) state. Each extent costs one batched Memory operation, one span
	// and one meter charge regardless of its length; inside it the batched
	// operation visits every frame once, so host time still grows with the
	// page count, at a few nanoseconds a page. The per-page dispatch inside
	// the batched operations is identical to the sequential one, so
	// virtual time and CloneStats are unchanged.
	var wctx obs.OpCtx
	wctx, wspan = ctx.StartSpan("extent-walk")
	for lo := 0; lo < len(s.ptes); {
		p := s.ptes[lo]
		if !p.present() {
			lo++
			continue
		}
		hi := lo + 1
		for hi < len(s.ptes) && (s.ptes[hi]^p)&pteExtentMask == 0 {
			hi++
		}
		n, kind := hi-lo, p.kind()
		ext := s.ptes[lo:hi]

		// One span per extent, named for the clone policy it went through:
		// family sharing, lazy deferral, or private duplication.
		name := "private-copy"
		if kind == KindIDC || kind == KindRegular {
			name = "cow-share"
			if kind == KindRegular && mode == CloneLazy {
				name = "lazy-pledge"
			}
		}
		_, bspan = wctx.StartSpan(name)
		switch kind {
		case KindIDC:
			// Genuinely shared, never COW: both sides keep writing
			// to the same frame (§5.2.2). sharePTEs adds a reference
			// to frames dom_cow already owns and transfers the rest.
			if _, err := s.mem.sharePTEs(ctx, s.dom, ext, 2); err != nil {
				return fail(err)
			}
			st.SharedPages += n
		case KindRegular:
			if mode == CloneLazy {
				// Defer the whole extent: pledge the frames (no
				// transfer, no charge) and leave the child entries
				// unmapped. The parent's writable pages still become
				// COW now — a parent write before materialization must
				// copy away so the pledged clone-time contents survive.
				if err := s.mem.pledgePTEs(ext); err != nil {
					return fail(err)
				}
				if p.writable() && !p.cow() {
					for i := range ext {
						ext[i] |= pteCOW
					}
				}
				lazyRuns = append(lazyRuns, fixup{lo: lo, hi: hi})
				st.Deferred += n
				st.Extents++
				bspan.End()
				bspan = obs.Span{}
				done = hi
				lo = hi
				continue
			}
			// Share between parent and child. Writable pages are
			// marked COW on both ends; read-only pages (text) are
			// shared with no fault cost ever. sharePTEs transfers the
			// frames the parent still owns (one PageShare each) and
			// bumps the ones dom_cow owns, so an extent an earlier
			// clone made COW is one walk of sharer bumps, and a frame
			// a lazy child's pledge left with the parent converts here
			// unless a materialization converted it first.
			if _, err := s.mem.sharePTEs(ctx, s.dom, ext, 2); err != nil {
				return fail(err)
			}
			if p.writable() && !p.cow() {
				for i := range ext {
					ext[i] |= pteCOW
				}
			}
			st.SharedPages += n
		case KindConsole, KindXenstore:
			// Fresh zeroed frames: the child console/xenstore rings
			// start empty.
			mfns, err := s.mem.AllocN(ctx, childDom, n)
			if err != nil {
				return fail(err)
			}
			fixups = append(fixups, fixup{lo: lo, hi: hi, mfns: mfns})
			st.PrivateFresh += n
		case KindIORing:
			mfns, err := s.mem.AllocN(ctx, childDom, n)
			if err != nil {
				return fail(err)
			}
			if copyRing {
				if err := s.mem.copyFramePTEs(ctx, mfns, ext); err != nil {
					s.mem.ReleaseN(childDom, mfns)
					return fail(err)
				}
				st.PrivateCopies += n
			} else {
				st.PrivateFresh += n
			}
			fixups = append(fixups, fixup{lo: lo, hi: hi, mfns: mfns})
		default: // KindPageTable, KindStartInfo, KindP2M: copy + rewrite
			mfns, err := s.mem.AllocN(ctx, childDom, n)
			if err != nil {
				return fail(err)
			}
			if err := s.mem.copyFramePTEs(ctx, mfns, ext); err != nil {
				s.mem.ReleaseN(childDom, mfns)
				return fail(err)
			}
			fixups = append(fixups, fixup{lo: lo, hi: hi, mfns: mfns})
			st.PrivateCopies += n
		}
		bspan.End()
		bspan = obs.Span{}
		st.PTEntries += n
		st.P2MEntries += n
		st.Extents++
		// Only regular writable pages are COW in the child; any other
		// extent carrying a (stale) COW bit must not pass it on.
		if p.cow() && !(kind == KindRegular && p.writable()) {
			fixups = append(fixups, fixup{lo: lo, hi: hi})
		}
		done = hi
		lo = hi
	}
	wspan.End()

	// Bulk-copy the parent's table (a recycled slice avoids both zeroing
	// and garbage) and patch in the private mappings.
	_, rspan := ctx.StartSpan("table-rebuild")
	defer rspan.End()
	child := &Space{
		mem:    s.mem,
		dom:    childDom,
		npages: len(s.ptes),
		ptes:   getPTEs(len(s.ptes)),
	}
	copy(child.ptes, s.ptes)
	for _, fx := range fixups {
		if fx.mfns == nil {
			for i := fx.lo; i < fx.hi; i++ {
				child.ptes[i] &^= pteCOW
			}
			continue
		}
		for i, mfn := range fx.mfns {
			child.ptes[fx.lo+i] = child.ptes[fx.lo+i].withMFN(mfn)
		}
	}
	for _, lr := range lazyRuns {
		// Deferred entries enter the unmapped-lazy state: mfn keeps naming
		// the pledged source frame, and the COW bit (set on the parent
		// side above) stays clear until materialization decides it.
		for i := lr.lo; i < lr.hi; i++ {
			child.ptes[i] = child.ptes[i]&^pteCOW | pteLazy
		}
	}
	child.lazyPTEs = len(lazyRuns) > 0

	// Rebuild the child's page-table and p2m metadata frames. This is
	// the dominant clone cost at large memory sizes (§6.2): every
	// mapping is written once into the new page table and once into the
	// new p2m.
	var err error
	child.ptFrames, err = s.mem.AllocN(ctx, childDom, PTFrameCount(len(s.ptes)))
	if err != nil {
		child.Release()
		return nil, st, err
	}
	child.p2mFrames, err = s.mem.AllocN(ctx, childDom, P2MFrameCount(len(s.ptes)))
	if err != nil {
		child.Release()
		return nil, st, err
	}
	st.MetaFrames = len(child.ptFrames) + len(child.p2mFrames)
	meter.Charge(meter.Costs().PTEntryClone, st.PTEntries)
	meter.Charge(meter.Costs().P2MEntryClone, st.P2MEntries)
	if st.Deferred > 0 {
		child.startStream(meter.Costs(), st.Deferred)
	}
	return child, st, nil
}

// ResetOp is the memory side of clone_reset (§7.2): every page this space
// privatized by a COW fault since its last reset is re-attached to the frame
// parent maps at the same pfn, so a fuzzing iteration starts from the
// parent's memory image. It returns the number of pages restored; the work
// is proportional to the recorded dirty set, as on real Xen where the dirty
// log drives the restore.
//
// A lazily cloned space may still defer pages: it is drained first, on
// ctx's meter and trace — the reset could not proceed before it.
//
// Every recorded page is validated before anything is mutated, so a failed
// reset leaves the pool, both page tables and the dirty record as they were
// and can simply be retried. A recorded page that is no longer this space's
// own private memory (it was re-shared by a clone of this space since) has
// nothing to restore and is skipped. Per restored page the frame transitions
// are the batched ones (DESIGN.md §10, "Frame states and transitions"): the
// reference on the parent's frame comes by ShareN's dispatch — a sharer bump
// where dom_cow already owns it, a transfer and one PageShare where the
// parent still does, and exactly those parent entries become write-protected
// — and the private frame goes by ReleaseN's.
func (s *Space) ResetOp(ctx obs.OpCtx, parent *Space) (int, error) {
	if err := s.Drain(ctx); err != nil {
		return 0, err
	}
	if s.retired {
		return 0, ErrSpaceRetired
	}
	m := s.mem
	for _, pfn := range s.dirty {
		if !s.privatized(pfn) {
			continue
		}
		pp, err := parent.pteAt(pfn)
		if err != nil {
			return 0, err
		}
		f, err := m.frameAt(pp.mfn())
		if err != nil {
			return 0, err
		}
		if f.owner != DomIDCOW && f.owner != parent.dom {
			return 0, fmt.Errorf("%w: reset pfn %d: parent's frame %d owned by %d", ErrNotOwner, pfn, pp.mfn(), f.owner)
		}
	}
	restored := 0
	for _, pfn := range s.dirty {
		if !s.privatized(pfn) {
			continue
		}
		cp, pp := &s.ptes[pfn], &parent.ptes[pfn]
		transferred, err := share(ctx, m, parent.dom, parent.ptes[pfn:pfn+1], pteMFNMask, 2)
		if err != nil {
			return restored, err
		}
		if transferred > 0 && pp.writable() {
			*pp |= pteCOW
		}
		release(m, s.dom, s.ptes[pfn:pfn+1], pteMFNMask, ptePresent)
		*cp = cp.withMFN(pp.mfn()) | pteCOW
		restored++
	}
	s.dirty = s.dirty[:0]
	clear(s.dirtySet)
	return restored, nil
}

// privatized reports whether a recorded dirty pfn is still backed by a
// regular frame the space itself owns.
func (s *Space) privatized(pfn PFN) bool {
	p := s.ptes[pfn]
	if !p.present() || p.kind() != KindRegular {
		return false
	}
	f, err := s.mem.frameAt(p.mfn())
	return err == nil && f.owner == s.dom
}

// Release frees every frame of the space: owned frames are freed, shared
// frames drop one reference, and unmaterialized lazy entries cancel their
// pledges. A later Drain of the space materializes nothing.
func (s *Space) Release() error {
	if s.retired {
		return nil
	}
	var firstErr error
	if s.lazyPTEs {
		// Cancel the pledges behind still-unmaterialized entries and
		// retire those entries before the batched release: the space
		// holds pledges there, not sharer references, and releasePTEs
		// must not drop references it never took.
		for lo := 0; lo < len(s.ptes); {
			if !s.ptes[lo].lazy() {
				lo++
				continue
			}
			hi := lo + 1
			for hi < len(s.ptes) && s.ptes[hi].lazy() {
				hi++
			}
			if err := s.mem.cancelPledged(s.ptes[lo:hi]); firstErr == nil {
				firstErr = err
			}
			for i := lo; i < hi; i++ {
				s.ptes[i] &^= ptePresent
			}
			lo = hi
		}
	}
	// Batched passes over everything the space holds: shared frames drop
	// a reference, owned frames are freed, frames owned by another domain
	// are left alone. The guest pages go straight off the page table run by
	// run (no intermediate list of any kind); the metadata frames follow.
	// Setting retired retires every entry, so the per-pte present bits need
	// no touching.
	if err := s.mem.releasePTEs(s.dom, s.ptes); firstErr == nil {
		firstErr = err
	}
	if err := s.mem.ReleaseN(s.dom, s.ptFrames); firstErr == nil {
		firstErr = err
	}
	if err := s.mem.ReleaseN(s.dom, s.p2mFrames); firstErr == nil {
		firstErr = err
	}
	putPTEs(s.ptes)
	s.ptes, s.ptFrames, s.p2mFrames = nil, nil, nil
	s.retired = true
	return firstErr
}

// Snapshot returns the contents of every guest page, one slot per pfn, with
// nil for pages whose backing frame has never been written (they read as
// zeroes). The whole capture is one pool call instead of a page-sized
// Read per pfn, and the pages are the frames' own, sealed
// (Memory.SnapshotFrames): read-only to the caller, untouched by later
// guest writes.
func (s *Space) Snapshot() ([][]byte, error) {
	mfns, err := s.snapshotMFNs()
	if err != nil {
		return nil, err
	}
	return s.mem.SnapshotFrames(mfns)
}

// snapshotMFNs captures the current pfn → mfn mapping of the whole space.
func (s *Space) snapshotMFNs() ([]MFN, error) {
	if s.retired {
		return nil, ErrSpaceRetired
	}
	mfns := make([]MFN, len(s.ptes))
	for i := range s.ptes {
		if !s.ptes[i].present() {
			return nil, fmt.Errorf("%w: pfn %d not present", ErrBadPFN, i)
		}
		mfns[i] = s.ptes[i].mfn()
	}
	return mfns, nil
}

// SnapshotRun is one extent of a space capture: Count consecutive pfns
// starting at Start. A zero run (Pages == nil) covers frames that have
// never been written and read as zeroes; a data run carries one page image
// per pfn. Alias >= 0 marks a run whose pfns map the very frames of an
// earlier run (pages adopted from one deduplicated cache frame): its
// contents are the pages of the run starting at pfn Alias, so the capture
// stores them once.
type SnapshotRun struct {
	Start PFN
	Count int
	Pages [][]byte
	Alias PFN // valid iff IsAlias
	// IsAlias reports that this run repeats the frames of the run starting
	// at Alias.
	IsAlias bool
}

// SnapshotRuns captures the space as run-length extents: consecutive
// never-written pages collapse into zero runs with no per-page storage,
// consecutive pfns backed by frames already captured earlier collapse into
// alias runs, and only genuinely distinct written pages carry data. Its
// pages are the frames' own, sealed, as Snapshot's are.
//
// It allocates per capture, never per pfn or per run: a counting walk sizes
// the run list and the one page array every data run slices, and an
// emitting walk fills them. Only frames dom_cow owns are indexed by frame
// number, because only they can back two pfns of one space: AdoptShared
// shares through dom_cow, and every other path maps a frame once. A frame
// anyone else owns therefore never repeats an earlier one.
func (s *Space) SnapshotRuns() ([]SnapshotRun, error) {
	if s.retired {
		return nil, ErrSpaceRetired
	}
	m := s.mem
	shared := 0
	for i, p := range s.ptes {
		if !p.present() {
			return nil, fmt.Errorf("%w: pfn %d not present", ErrBadPFN, i)
		}
		f, err := m.frameAt(p.mfn())
		if err != nil {
			return nil, err
		}
		if f.owner == DomIDCOW {
			shared++
		}
	}
	c := runCapture{m: m, ptes: s.ptes}
	if shared > 1 {
		c.firstAt = make(map[MFN]PFN, shared)
	}
	c.walk()
	c.runs, c.pages = make([]SnapshotRun, 0, c.nruns), make([][]byte, 0, c.ndata)
	c.walk()
	return c.runs, nil
}

// runCapture is one SnapshotRuns pass over a table whose frames are all in
// use. Until runs is made a walk only counts the
// runs and data pages it would emit; after, it emits them.
type runCapture struct {
	m    *Memory
	ptes []pte
	// firstAt maps each dom_cow frame to the first pfn backed by it; nil
	// when no frame can repeat. The counting walk fills it.
	firstAt map[MFN]PFN

	nruns, ndata int
	runs         []SnapshotRun
	pages        [][]byte
}

// earlier reports the first pfn backed by pfn i's frame when that pfn lies
// before i, recording i as the first one when the frame is new.
func (c *runCapture) earlier(i int) (PFN, bool) {
	if c.firstAt == nil {
		return 0, false
	}
	mfn := c.ptes[i].mfn()
	if c.m.frame(mfn).owner != DomIDCOW {
		return 0, false
	}
	first, ok := c.firstAt[mfn]
	if !ok {
		c.firstAt[mfn] = PFN(i)
		return 0, false
	}
	return first, first < PFN(i)
}

// written reports whether pfn i's frame holds a page.
func (c *runCapture) written(i int) bool { return c.m.pageOf(c.m.frame(c.ptes[i].mfn())) != nil }

// walk splits the table into runs: an alias run extends while each pfn
// repeats the frame one pfn after its predecessor's first pfn, a fresh run
// while the zero/data class holds and no frame repeats.
func (c *runCapture) walk() {
	n := len(c.ptes)
	for lo := 0; lo < n; {
		run, hi := SnapshotRun{Start: PFN(lo)}, lo+1
		if seen, dup := c.earlier(lo); dup {
			for hi < n {
				if prev, dup := c.earlier(hi); !dup || prev != seen+PFN(hi-lo) {
					break
				}
				hi++
			}
			run.Alias, run.IsAlias = seen, true
		} else {
			data := c.written(lo)
			for hi < n && c.written(hi) == data {
				if _, dup := c.earlier(hi); dup {
					break
				}
				hi++
			}
			if data {
				run.Pages = c.capture(lo, hi)
			}
		}
		run.Count = hi - lo
		if c.runs == nil {
			c.nruns++
		} else {
			c.runs = append(c.runs, run)
		}
		lo = hi
	}
}

// capture counts the pages of the data run [lo, hi), or seals its frames and
// returns their pages as the next stretch of the page array.
func (c *runCapture) capture(lo, hi int) [][]byte {
	if c.runs == nil {
		c.ndata += hi - lo
		return nil
	}
	base := len(c.pages)
	for _, p := range c.ptes[lo:hi] {
		f := c.m.frame(p.mfn())
		f.seal()
		c.pages = append(c.pages, c.m.pageOf(f)[:])
	}
	return c.pages[base:len(c.pages):len(c.pages)]
}
