// Package mem simulates the machine memory of one physical host as managed
// by the Xen hypervisor: a pool of 4 KiB frames with per-frame ownership and
// reference counting, copy-on-write sharing through the dom_cow
// pseudo-domain, per-domain p2m maps, and direct-paging page-table frame
// accounting. It is the substrate under both unikernel cloning
// (internal/hv) and the Linux process baseline (internal/proc).
package mem

import (
	"errors"
	"fmt"
	"sync"

	"nephele/internal/fault"
	"nephele/internal/obs"
)

// PageSize is the machine frame size in bytes.
const PageSize = 4096

// PagesPerPTFrame is the number of mappings one page-table frame covers
// (512 8-byte entries, as on x86-64).
const PagesPerPTFrame = 512

// DomID identifies a domain as the owner of frames. The mem package does
// not interpret IDs beyond the reserved values below.
type DomID uint32

// Reserved domain IDs, mirroring Xen's.
const (
	DomIDInvalid DomID = 0x7FF4
	// DomIDCOW is the pseudo-domain that owns shared (copy-on-write)
	// frames, Xen's dom_cow.
	DomIDCOW DomID = 0x7FF2
	// DomIDChild is the wildcard used by grant references and event
	// channels to designate not-yet-existing clone children (§5.1).
	DomIDChild DomID = 0x7FF1
	// DomIDCache is the pseudo-domain the toolstack's snapshot image
	// cache allocates resident chunk frames under; like dom_cow it never
	// runs, it only owns memory.
	DomIDCache DomID = 0x7FF3
	// DomID0 is the host domain.
	DomID0 DomID = 0
)

// MFN is a machine frame number.
type MFN uint64

// PFN is a guest-physical (pseudo-physical) frame number.
type PFN uint64

// Errors returned by the memory subsystem.
var (
	ErrOutOfMemory   = errors.New("mem: out of machine memory")
	ErrBadFrame      = errors.New("mem: bad frame number")
	ErrNotOwner      = errors.New("mem: domain does not own frame")
	ErrNotShared     = errors.New("mem: frame is not shared")
	ErrBadPFN        = errors.New("mem: pfn not populated")
	ErrReadOnly      = errors.New("mem: write to read-only mapping without fault handling")
	ErrBadOffset     = errors.New("mem: access crosses page boundary")
	ErrDoubleFree    = errors.New("mem: frame already free")
	ErrSpaceRetired  = errors.New("mem: address space was released")
	ErrStreamPending = errors.New("mem: space still has unstreamed lazy pages")
	ErrNotPledged    = errors.New("mem: frame carries no pledge")
)

// frame is one machine page's state: 16 bytes and no pointer, so the frame
// table, the largest thing the host keeps per simulated page, is nothing the
// collector scans (DESIGN.md §10, "Table layouts").
//
// The page's contents live in the pool's slot table (pageSlots), which the
// frame names by a 30-bit index in word; slot 0 means the frame reads as
// zeroes (nothing was written to it since it was handed out, or it last took
// a copy of such a frame), so host memory follows the frames that hold data
// rather than the thousands of simulated domains. A frame takes a slot the
// first time it stores a page and keeps it for life: freeing the frame only
// empties the slot. A page a frame lets go of goes back to pagePool unless it
// is sealed, and the next frame that needs a page takes it from there: the
// host holds the pages of live frames plus what the pool keeps until the
// collector drains it.
//
// pledges counts lazy-clone children that hold an unmaterialized claim on
// the frame's clone-time contents (DESIGN.md §13). A pledged frame's
// contents are immutable: any write path converts it to dom_cow first and
// copies away, and teardown keeps a pledged frame alive as a dom_cow
// "zombie" (refcount 0, pledges > 0) until the last pledge is adopted or
// cancelled.
//
// word packs the slot index with two bits above it: inUse, and sealed,
// which means the page is also held by a snapshot, an image or another
// frame, so it is never written in place again: SnapshotFrames and
// WritePage set it, and every path that stores a page replaces a sealed one
// with a private one first (DESIGN.md §10.1).
//
// Pages are always whole: the exported surface converts at its edge —
// page[:] out, (*[PageSize]byte)(page) in — so the slices callers see are
// backed by the very arrays the slots hold.
type frame struct {
	owner    DomID
	refcount int32
	pledges  int32
	word     uint32 // slot index | frameSealed | frameInUse
}

// The bits of frame.word above the slot index. A 30-bit index numbers
// 4 TiB of written pages.
const (
	frameInUse    = 1 << 31
	frameSealed   = 1 << 30
	frameSlotMask = frameSealed - 1
)

// inUse reports whether the frame is handed out (not free).
func (f *frame) inUse() bool { return f.word&frameInUse != 0 }

// sealed reports whether the frame's page may be held elsewhere too.
func (f *frame) sealed() bool { return f.word&frameSealed != 0 }

// slot returns the frame's slot index, 0 for none.
func (f *frame) slot() uint32 { return f.word & frameSlotMask }

// seal marks the frame's page as shared with a holder outside the frame.
func (f *frame) seal() { f.word |= frameSealed }

// pageChunkShift is log2 of the slot table's chunk size, 4096 pages.
const (
	pageChunkShift = 12
	pageChunkMask  = 1<<pageChunkShift - 1
)

// pageSlots is the pool's slot table: slot s (1..n) holds the page of the
// frame that names it, nil when that frame reads as zeroes, at
// chunks[(s-1)>>pageChunkShift][(s-1)&pageChunkMask]. Like the frame table,
// every chunk but the first is whole from the moment it exists, and the
// first grows by doubling, so no slot is copied once its chunk is whole and
// a pool that never stores a page pays for nothing. Slots are never given
// back, so n is the number of frames that ever held a page.
type pageSlots struct {
	chunks [][]*[PageSize]byte
	n      uint32
}

// ref returns the cell of slot s, 1 <= s <= n.
func (t *pageSlots) ref(s uint32) **[PageSize]byte {
	i := s - 1
	return &t.chunks[i>>pageChunkShift][i&pageChunkMask]
}

// add hands out the next slot, empty.
func (t *pageSlots) add() uint32 {
	if t.n == frameSlotMask {
		panic("mem: slot table full: more than 2^30 frames hold pages")
	}
	const chunk = 1 << pageChunkShift
	i := t.n
	switch ci := int(i >> pageChunkShift); {
	case ci == 0:
		if len(t.chunks) == 0 {
			t.chunks = append(t.chunks, nil)
		}
		first := t.chunks[0]
		if int(i) == cap(first) {
			first = make([]*[PageSize]byte, i, min(max(8, 2*cap(first)), chunk))
			copy(first, t.chunks[0])
		}
		t.chunks[0] = first[:i+1]
	case ci == len(t.chunks):
		t.chunks = append(t.chunks, make([]*[PageSize]byte, chunk))
	}
	t.n++
	return t.n
}

// pageOf returns f's page, nil when f reads as zeroes.
func (m *Memory) pageOf(f *frame) *[PageSize]byte {
	if s := f.slot(); s != 0 {
		return *m.pages.ref(s)
	}
	return nil
}

// setPage makes p f's page, sealed or not, giving f a slot if it has none.
// The page it replaces is dropped, not recycled: callers replace only a
// sealed page or none.
func (m *Memory) setPage(f *frame, p *[PageSize]byte, sealed bool) {
	if f.slot() == 0 {
		f.word |= m.pages.add()
	}
	*m.pages.ref(f.slot()) = p
	f.word &^= frameSealed
	if sealed {
		f.word |= frameSealed
	}
}

// putPage detaches f's page, recycling it unless it is sealed; f keeps its
// slot.
func (m *Memory) putPage(f *frame) {
	s := f.slot()
	if s == 0 {
		return
	}
	if cell := m.pages.ref(s); *cell != nil {
		if !f.sealed() {
			pagePool.Put(*cell)
		}
		*cell = nil
	}
	f.word &^= frameSealed
}

// pagePool recycles the data pages of freed frames into the next frames a
// write or a copy fills. A COW fault's private copy is garbage one
// clone_reset later, and on the fuzzing pattern allocating and collecting
// those pages was over half of the host's work. Only unsealed pages enter
// it: an unsealed page is held by its frame alone, a sealed one may also be
// in a snapshot, an image or another frame (DESIGN.md §10.1). Pages from the
// pool hold stale bytes, so getPage clears one only when asked, and a caller
// that overwrites the whole page does not ask.
var pagePool sync.Pool

func getPage(zero bool) *[PageSize]byte {
	if v := pagePool.Get(); v != nil {
		p := v.(*[PageSize]byte)
		if zero {
			*p = [PageSize]byte{}
		}
		return p
	}
	return new([PageSize]byte)
}

// frameChunkShift is log2 of the frame table's chunk size, 4096 frames: the
// metadata of frame mfn is chunks[mfn>>frameChunkShift][mfn&frameChunkMask].
// The table is materialized from MFN 0 up to the highest frame the pool ever
// handed out, under one invariant: every chunk but the first is whole (a
// full chunk, or what is left of the pool) from the moment it exists, and
// the first grows by doubling up to that size. So a frame, once in the
// table, is never copied or cleared again, whatever the pool grows to, while
// a pool that hands out a few hundred frames pays for those and not for
// 4096. Finding a frame costs a shift, a mask and the load of its chunk,
// whatever frame was looked at before it.
const (
	frameChunkShift = 12
	frameChunkMask  = 1<<frameChunkShift - 1
)

// grow extends the table, which covers the first m.watermark frames,
// to cover the first n (n <= m.total).
func (m *Memory) grow(n int) {
	const chunk = 1 << frameChunkShift
	whole := min(chunk, m.total)
	if first, want := m.chunks[0], min(n, whole); want > len(first) {
		if want > cap(first) {
			first = make([]frame, want, min(max(want, 2*cap(first)), whole))
			copy(first, m.chunks[0])
		}
		m.chunks[0] = first[:want]
	}
	for k := max(1, m.watermark>>frameChunkShift); k<<frameChunkShift < n; k++ {
		if m.chunks[k] == nil {
			m.chunks[k] = make([]frame, min(chunk, m.total-k<<frameChunkShift))
		}
	}
}

// frame returns the metadata of mfn, which the table must cover.
func (m *Memory) frame(mfn MFN) *frame {
	return &m.chunks[mfn>>frameChunkShift][mfn&frameChunkMask]
}

// mfnStackChunk is the size of one chunk of the free stack, in MFNs.
const (
	mfnStackShift = 10
	mfnStackChunk = 1 << mfnStackShift
)

// mfnStack is the pool's LIFO of freed frames. Like the frame table it is
// made of fixed chunks, so a push never copies what is already stacked; a
// chunk, once made, is kept for the next push that reaches it.
type mfnStack struct {
	chunks [][]MFN
	n      int
}

func (s *mfnStack) push(mfn MFN) {
	ci := s.n >> mfnStackShift
	if ci == len(s.chunks) {
		s.chunks = append(s.chunks, make([]MFN, mfnStackChunk))
	}
	s.chunks[ci][s.n&(mfnStackChunk-1)] = mfn
	s.n++
}

// pop removes the most recently pushed frame; the stack must not be empty.
func (s *mfnStack) pop() MFN {
	s.n--
	return s.chunks[s.n>>mfnStackShift][s.n&(mfnStackChunk-1)]
}

// Memory is the machine memory pool, shared by every simulated domain of a
// platform and driven, like the platform, by one goroutine (DESIGN.md §10,
// §12.2).
//
// Frame metadata is materialized lazily: frames above the allocation
// watermark have never existed, so creating a multi-GiB pool costs nothing
// until frames are handed out. Allocation is deterministic given the
// operation sequence: recycled frames LIFO, then the lowest never-allocated
// MFN.
type Memory struct {
	total int // pool size in frames

	watermark int      // frames handed out from MFN 0
	recycled  mfnStack // freed frames, reused LIFO
	free      int      // frames not in use
	shared    int      // frames owned by dom_cow
	// chunks is the frame table (see frameChunkShift). The outer slice is
	// fixed by New; its elements grow with the watermark.
	chunks [][]frame
	// pages is the slot table holding the frames' pages (see frame).
	pages pageSlots

	// metrics is the opt-in hot-path instrumentation (SetMetrics); nil —
	// the default — keeps the COW fault path and the drain uninstrumented.
	metrics *memMetrics
	// faults is the optional fault-injection registry of the lazy-clone
	// drain and demand faults (SetFaults); nil never fires.
	faults *fault.Registry
}

// New creates a machine memory pool of totalBytes (rounded down to whole
// frames).
func New(totalBytes uint64) *Memory {
	total := int(totalBytes / PageSize)
	return &Memory{
		total:  total,
		free:   total,
		chunks: make([][]frame, (total+frameChunkMask)>>frameChunkShift),
	}
}

// SetFaults installs a fault-injection registry on the lazy-clone drain and
// demand faults of every space in the pool (tests); nil disables injection.
func (m *Memory) SetFaults(r *fault.Registry) { m.faults = r }

// frameAt returns the frame metadata for mfn.
func (m *Memory) frameAt(mfn MFN) (*frame, error) {
	if int(mfn) >= m.total {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, mfn)
	}
	ch := m.chunks[mfn>>frameChunkShift]
	if off := int(mfn & frameChunkMask); off < len(ch) && ch[off].inUse() {
		return &ch[off], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrDoubleFree, mfn)
}

// frameErr is the "<kind>: <mfn>" error of the batched operations, built out
// of line so their allocation-free bodies box nothing on the error branch.
func frameErr(kind error, mfn MFN) error { return fmt.Errorf("%w: %d", kind, mfn) }

// notOwnerErr is ShareN's error for a frame another domain owns.
func notOwnerErr(mfn MFN, owner, dom DomID) error {
	return fmt.Errorf("%w: frame %d owned by %d, shared by %d", ErrNotOwner, mfn, owner, dom)
}

// frameList is the input of a batched operation: a list of frame numbers, or
// a run of page-table entries whose MFN fields name the frames, so the clone
// and teardown paths work straight off a page table and build no list. The
// walks read an entry's frame number through a mask: allMFN for a list,
// pteMFNMask for page-table entries.
type frameList interface{ MFN | pte }

// allMFN is the mask that reads a frame number off an MFN list: all of it.
const allMFN = ^MFN(0)

// The batched operations walk their input one entry at a time: a range
// check, the frame's cell chunks[mfn>>frameChunkShift][mfn&frameChunkMask],
// then the per-frame body. Their cost follows the number of entries,
// whatever the MFNs: a table a parent's writes have scattered over the pool
// costs what a contiguous one does (DESIGN.md §10, "Frame walks"). A
// per-entry loop is only as fast as the few values it keeps in registers,
// and whatever lives across a call is spilled, so each hot loop is a
// function of its own that makes no call (addRefs, toCOW, addPledges,
// adoptRefs, dropSharers): a strict walk's loop returns where it stopped and its
// caller leaves the undo and the error to the helpers below, and the
// release walk hands shared stretches to dropSharers.
//
// Two rules hold for every operation. An out-of-range MFN outranks a
// per-frame error wherever it sits in the input. And a strict operation
// (share, pledge, adopt) that fails leaves the pool as it was, however far
// its walk got.

// inUseFrame returns the frame mfn names if it is in use, nil if it is free
// or lies above what the table covers (never handed out); mfn must be below
// the pool size.
//
//nephele:noalloc
func inUseFrame(chunks [][]frame, mfn MFN) *frame {
	ch := chunks[mfn>>frameChunkShift]
	if off := mfn & frameChunkMask; off < MFN(len(ch)) && ch[off].inUse() {
		return &ch[off]
	}
	return nil
}

// firstBad returns the first out-of-range frame number in the input, and
// whether there is one.
//
//nephele:noalloc
func firstBad[T frameList](in []T, mask T, total int) (MFN, bool) {
	for _, e := range in {
		if mfn := MFN(e & mask); mfn >= MFN(total) {
			return mfn, true
		}
	}
	return 0, false
}

// stopErr is the error of a strict walk that stopped at in[0] because its
// frame failed with kind, or because in[0] is out of range. Every entry
// before it passed, so an out-of-range entry that outranks the failure can
// only sit from in[0] on.
//
//nephele:noalloc
func stopErr[T frameList](in []T, mask T, total int, kind error) error {
	if mfn, bad := firstBad(in, mask, total); bad {
		return frameErr(ErrBadFrame, mfn)
	}
	return frameErr(kind, MFN(in[0]&mask))
}

// skipErr is the error of a skip-and-record walk, given the index of its
// first out-of-range entry and of its first entry whose frame failed with
// kind (-1 for none): the first out-of-range frame, else the first failed
// one, else nil.
//
//nephele:noalloc
func skipErr[T frameList](in []T, mask T, bad, failed int, kind error) error {
	switch {
	case bad >= 0:
		return frameErr(ErrBadFrame, MFN(in[bad]&mask))
	case failed >= 0:
		return frameErr(kind, MFN(in[failed]&mask))
	}
	return nil
}

// TotalFrames reports the machine memory size in frames.
func (m *Memory) TotalFrames() int { return m.total }

// FreeFrames reports the number of unallocated frames.
func (m *Memory) FreeFrames() int {
	return m.free
}

// SharedFrames reports the number of frames owned by dom_cow.
func (m *Memory) SharedFrames() int {
	return m.shared
}

// UsedBy reports the number of frames currently owned by dom. Frames shared
// through dom_cow are charged to DomIDCOW. The pool keeps no per-domain
// count: UsedBy walks the frame table, so it costs what Audit's walk does
// and belongs with it in tests.
func (m *Memory) UsedBy(dom DomID) int {
	n := 0
	for _, ch := range m.chunks {
		for i := range ch {
			if ch[i].inUse() && ch[i].owner == dom {
				n++
			}
		}
	}
	return n
}

// initFrame hands frame mfn out to dom; the table must already cover
// mfn. A free frame's slot is empty, so the frame
// reads as zeroes.
func (m *Memory) initFrame(mfn MFN, dom DomID) {
	f := m.frame(mfn)
	f.owner = dom
	f.refcount = 1
	f.word = f.slot() | frameInUse
}

// resetFrame returns frame f, whose number is mfn, to the recycled
// stack without touching the free and shared counts (the caller batches
// those).
func (m *Memory) resetFrame(f *frame, mfn MFN) {
	m.putPage(f)
	f.word &^= frameInUse
	f.refcount = 0
	f.pledges = 0
	f.owner = DomIDInvalid
	m.recycled.push(mfn)
}

// AllocN allocates n frames for dom and charges ctx's meter once for the
// whole run. A pool with fewer than n free frames refuses the call and
// allocates nothing.
func (m *Memory) AllocN(ctx obs.OpCtx, dom DomID, n int) ([]MFN, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]MFN, n)
	if err := allocInto(ctx, m, dom, out); err != nil {
		return nil, err
	}
	return out, nil
}

// allocInto is AllocN into the caller's slice, filling all of it: recycled
// frames first (most recent first), then a contiguous run from the
// watermark. It only stores into out, so the write-fault path's one-frame
// array costs no heap. out holds frame numbers, or page-table entries that
// the caller completes with their flags: NewSpace allocates straight into
// its table.
func allocInto[T MFN | pte](ctx obs.OpCtx, m *Memory, dom DomID, out []T) error {
	err := allocFrames(m, dom, out)
	if err != nil {
		return err
	}
	meter := ctx.Meter()
	meter.Charge(meter.Costs().PageAlloc, len(out))
	return nil
}

// allocFrames is allocInto's body, which charges nothing. It may grow the frame table, which can move the first chunk: a
// *frame the caller took before the call must be looked up again.
func allocFrames[T MFN | pte](m *Memory, dom DomID, out []T) error {
	if m.free < len(out) {
		return fmt.Errorf("%w: want %d frames, %d free", ErrOutOfMemory, len(out), m.free)
	}
	took := 0
	for took < len(out) && m.recycled.n > 0 {
		mfn := m.recycled.pop()
		m.initFrame(mfn, dom)
		out[took] = T(mfn)
		took++
	}
	if run := len(out) - took; run > 0 {
		m.grow(m.watermark + run)
		for i := range out[took:] {
			mfn := MFN(m.watermark + i)
			m.initFrame(mfn, dom)
			out[took+i] = T(mfn)
		}
		m.watermark += run
	}
	m.free -= len(out)
	return nil
}

// Refcount reports the sharer count of a frame.
func (m *Memory) Refcount(mfn MFN) (int, error) {
	f, err := m.frameAt(mfn)
	if err != nil {
		return 0, err
	}
	return int(f.refcount), nil
}

// ShareN shares a run of frames with refs sharers each, charging ctx's meter
// once for the run. This is the page-sharing mechanism Nephele extends from
// Snowflock (§5.2): frames owned by dom are transferred to dom_cow with refs
// sharers (the owner plus the new family members) and charged one PageShare
// each, frames dom_cow already owns gain refs-1 references at no virtual
// cost, and subsequent writers fault and receive private copies. A failed
// call leaves the pool untouched.
//
//nephele:noalloc
func (m *Memory) ShareN(ctx obs.OpCtx, dom DomID, mfns []MFN, refs int) error {
	_, err := share(ctx, m, dom, mfns, allMFN, refs)
	return err
}

// sharePTEs is ShareN over the frames referenced by a run of page-table
// entries, so the clone hot path builds no MFN list for extents it only
// shares. It also reports how many frames it transferred, which is what a
// caller that must write-protect the previous owner's mappings needs to
// know.
//
//nephele:noalloc
func (m *Memory) sharePTEs(ctx obs.OpCtx, dom DomID, ptes []pte, refs int) (int, error) {
	return share(ctx, m, dom, ptes, pteMFNMask, refs)
}

// share is ShareN's body over either input form.
// It returns the number of frames transferred to dom_cow.
//
// One walk validates each entry and adds refs-1 to its frame's sharer
// count, whether dom_cow or dom owns it. For a dom_cow frame that is the
// whole change. A frame dom owns holds exactly one reference (Audit's
// frame-state rule), so it now holds the refs a transfer gives it and only
// its owner is left to move: once every entry has passed, a second pass
// over the input up to the last entry that named such a frame hands them
// to dom_cow. An extent an earlier clone made COW names none, so re-cloning
// it is the one walk. An entry that fails stops the walk, and shareFailed
// takes the refs-1 back from every entry before it. The walk moves no
// owner because a frame it transferred and a dom_cow frame that had one
// sharer would look alike afterwards, and the undo could not tell them
// apart.
//
//nephele:noalloc
func share[T frameList](ctx obs.OpCtx, m *Memory, dom DomID, in []T, mask T, refs int) (int, error) {
	if refs < 1 {
		return 0, fmt.Errorf("mem: share with %d refs", refs) //nephele:hotalloc-ok — caller bug, never on the warm path
	}
	add := int32(refs - 1)
	stop, hi := addRefs(m.chunks, MFN(m.total), in, mask, dom, add)
	if stop < len(in) {
		return 0, shareFailed(m, dom, in, mask, stop, add)
	}
	transfers := toCOW(m.chunks, in[:hi], mask)
	if transfers > 0 {
		m.shared += transfers
		meter := ctx.Meter()
		meter.Charge(meter.Costs().PageShare, transfers)
	}
	return transfers, nil
}

// addRefs is share's walk: it adds add to the sharer count of each
// entry's frame for as long as the entry is in range and its frame in use
// and owned by dom_cow or dom. It returns the index of the entry it stopped
// at (len(in) if none) and one past the last entry naming a frame dom owns
// (0 if none). It makes no call, so the loop keeps its few values in
// registers.
//
//nephele:noalloc
func addRefs[T frameList](chunks [][]frame, total MFN, in []T, mask T, dom DomID, add int32) (stop, hi int) {
	for i, e := range in {
		mfn := MFN(e & mask)
		if mfn >= total {
			return i, hi
		}
		ch, off := chunks[mfn>>frameChunkShift], mfn&frameChunkMask
		if off >= MFN(len(ch)) || !ch[off].inUse() {
			return i, hi
		}
		f := &ch[off]
		if f.owner != DomIDCOW {
			if f.owner != dom {
				return i, hi
			}
			hi = i + 1
		}
		f.refcount += add
	}
	return len(in), hi
}

// toCOW hands every frame of the input that dom_cow does not own yet to
// dom_cow and returns how many it moved; every entry must name a frame in
// use. It makes no call.
//
//nephele:noalloc
func toCOW[T frameList](chunks [][]frame, in []T, mask T) int {
	moved := 0
	for _, e := range in {
		mfn := MFN(e & mask)
		if f := &chunks[mfn>>frameChunkShift][mfn&frameChunkMask]; f.owner != DomIDCOW {
			f.owner = DomIDCOW
			moved++
		}
	}
	return moved
}

// shareFailed undoes a share walk that stopped at entry i and returns why it
// stopped. Every entry before i added add to its frame's sharer count and
// changed nothing else, so subtracting add once per entry restores every
// frame exactly, however often the input names it.
//
//nephele:noalloc
func shareFailed[T frameList](m *Memory, dom DomID, in []T, mask T, i int, add int32) error {
	for _, e := range in[:i] {
		m.frame(MFN(e & mask)).refcount -= add
	}
	mfn := MFN(in[i] & mask)
	if _, bad := firstBad(in[i:], mask, m.total); !bad {
		if f := inUseFrame(m.chunks, mfn); f != nil {
			return notOwnerErr(mfn, f.owner, dom)
		}
	}
	return stopErr(in[i:], mask, m.total, ErrDoubleFree)
}

// resolveCOW resolves a write fault by dom on the frame behind a COW-marked
// pte and returns the MFN the domain maps afterwards. It is the one
// write-fault resolver, and it classifies the frame each time it looks at
// it (DESIGN.md §10, "Frame states and transitions"):
//
//   - owned by dom with pledges: lazy children still claim the clone-time
//     contents, so the frame is converted to dom_cow with dom as its single
//     sharer (the deferred PageShare) and then copied away like any shared
//     frame, which leaves a zombie holding the pledged contents;
//   - owned by dom without pledges: every lazy child cancelled its claim
//     before the frame was ever converted, so the stale protection is lifted
//     in place for the PageUnshare the eager family's last-sharer transfer
//     would have cost;
//   - shared, dom the last sharer and no pledges: ownership moves from
//     dom_cow to the faulting domain — which may differ from the original
//     owner (§5.2) — with no copy, one PageUnshare;
//   - shared otherwise: a private frame is allocated (PageAlloc), the
//     contents copied and dom's sharer reference dropped (PageUnshare);
//   - anything else is ErrNotShared.
//
// It looks once: nothing runs between the classification, the private
// frame's allocation and the copy.
func (m *Memory) resolveCOW(ctx obs.OpCtx, dom DomID, mfn MFN) (MFN, error) {
	if int(mfn) >= m.total {
		return 0, frameErr(ErrBadFrame, mfn)
	}
	f, err := m.frameAt(mfn)
	if err == nil && f.owner != DomIDCOW && f.owner != dom {
		err = fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, mfn, f.owner)
	}
	if err != nil {
		return 0, err
	}
	meter := ctx.Meter()
	costs := meter.Costs()
	if f.pledges == 0 && (f.owner == dom || f.refcount == 1) {
		if f.owner == DomIDCOW {
			m.reown(f, dom)
		}
		meter.Charge(costs.PageUnshare, 1)
		return mfn, nil
	}
	var one [1]MFN
	if err := allocFrames(m, dom, one[:]); err != nil {
		return 0, err
	}
	// The allocation may have grown the frame table's first chunk, which
	// moves it: look the frame up again.
	f, nf := m.frame(mfn), m.frame(one[0])
	pledged := f.owner == dom
	if pledged {
		m.reown(f, DomIDCOW)
	}
	if page := m.pageOf(f); page != nil {
		to := getPage(false)
		*to = *page
		m.setPage(nf, to, false)
	}
	f.refcount--
	if pledged {
		meter.Charge(costs.PageShare, 1)
	}
	meter.Charge(costs.PageAlloc, 1)
	meter.Charge(costs.PageUnshare, 1)
	return one[0], nil
}

// reown moves frame f between a domain and dom_cow, whichever way to
// says, with the shared count; the sharer count is the caller's business.
func (m *Memory) reown(f *frame, to DomID) {
	f.owner = to
	if to == DomIDCOW {
		m.shared++
	} else {
		m.shared--
	}
}

// ReleaseN releases a run of frames on behalf of dom, applying the
// domain-teardown rules per frame: dom_cow frames drop one sharer reference
// (freeing on the last), frames owned by dom are freed, and frames owned by
// anyone else are skipped. Bad frames — free ones and dom_cow zombies, which
// hold no reference to drop — are recorded and skipped; the first error is
// returned after the whole run is processed.
//
//nephele:noalloc
func (m *Memory) ReleaseN(dom DomID, mfns []MFN) error {
	return release(m, dom, mfns, allMFN, 0)
}

// releasePTEs is ReleaseN over the frames referenced by the present entries
// of a page table: releasing a whole space builds no MFN list. Entries that
// are not present are skipped without error (an already torn-down mapping
// has nothing to release).
//
//nephele:noalloc
func (m *Memory) releasePTEs(dom DomID, ptes []pte) error {
	return release(m, dom, ptes, pteMFNMask, ptePresent)
}

// release applies the domain-teardown rules in one walk, skipping the
// entries that lack a bit of present (0 skips none). An
// out-of-range MFN outranks a per-frame error in what is returned. The
// common entry of a shared stretch, a dom_cow frame that keeps a sharer,
// is dropSharers' to walk; the loop here takes the rest one at a time —
// frames it frees, zombies, bad entries — and hands a shared stretch back.
//
//nephele:noalloc
func release[T frameList](m *Memory, dom DomID, in []T, mask, present T) error {
	chunks, total := m.chunks, MFN(m.total)
	bad, failed := -1, -1
	var ownFreed, cowFreed, zombied int
	for i := dropSharers(chunks, total, in, mask, present, 0); i < len(in); i++ {
		e := in[i]
		if e&present != present {
			continue
		}
		mfn := MFN(e & mask)
		if mfn >= total {
			if bad < 0 {
				bad = i
			}
			continue
		}
		f := inUseFrame(chunks, mfn)
		if f == nil {
			if failed < 0 {
				failed = i
			}
			continue
		}
		switch f.owner {
		case DomIDCOW:
			if f.refcount == 0 {
				// A zombie holds pledges, not references: releasing it
				// drops a reference nobody holds, refused like a free frame.
				if failed < 0 {
					failed = i
				}
				continue
			}
			f.refcount--
			if f.refcount == 0 && f.pledges == 0 {
				cowFreed++
				m.resetFrame(f, mfn)
			}
			// Shared frames come in stretches: the next entries go to the
			// loop that makes no call.
			i = dropSharers(chunks, total, in, mask, present, i+1) - 1
		case dom:
			if f.pledges > 0 {
				// Lazy children still claim the clone-time contents:
				// keep the frame as a dom_cow zombie.
				f.owner = DomIDCOW
				f.refcount = 0
				zombied++
			} else {
				ownFreed++
				m.resetFrame(f, mfn)
			}
		}
	}
	m.shared += zombied - cowFreed
	m.free += ownFreed + cowFreed
	return skipErr(in, mask, bad, failed, ErrDoubleFree)
}

// dropSharers drops one sharer reference from the frame of each entry from
// in[i] on, for as long as the entry is present, names a frame in use that
// dom_cow owns and that frame keeps a sharer, and returns the index of the
// first entry it leaves to the caller (len(in) if none). It makes no call,
// so the loop keeps its few values in registers.
//
//nephele:noalloc
func dropSharers[T frameList](chunks [][]frame, total MFN, in []T, mask, present T, i int) int {
	for j, e := range in[i:] {
		mfn := MFN(e & mask)
		if e&present != present || mfn >= total {
			return i + j
		}
		ch, off := chunks[mfn>>frameChunkShift], mfn&frameChunkMask
		if off >= MFN(len(ch)) {
			return i + j
		}
		f := &ch[off]
		if !f.inUse() || f.owner != DomIDCOW || f.refcount < 2 {
			return i + j
		}
		f.refcount--
	}
	return len(in)
}

// Read copies the contents at (mfn, off) into buf. Reading a never-written
// frame yields zeroes.
func (m *Memory) Read(mfn MFN, off int, buf []byte) error {
	f, err := m.frameAt(mfn)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > PageSize {
		return ErrBadOffset
	}
	page := m.pageOf(f)
	if page == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, page[off:])
	return nil
}

// Write stores buf at (mfn, off). Write does not check ownership or
// sharing; address spaces enforce COW before calling it. A sealed page is
// replaced by a private copy first, so holders of the old slice never see
// the write; the old page itself is theirs and never recycled.
func (m *Memory) Write(mfn MFN, off int, buf []byte) error {
	f, err := m.frameAt(mfn)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > PageSize {
		return ErrBadOffset
	}
	page := m.pageOf(f)
	if page == nil || f.sealed() {
		// Only a partial write to a frame with no page leaves bytes of the
		// new page that neither the old page nor buf overwrites.
		old, partial := page, len(buf) < PageSize
		page = getPage(old == nil && partial)
		if old != nil && partial {
			*page = *old
		}
		m.setPage(f, page, false)
	}
	copy(page[off:], buf)
	return nil
}

// WritePage makes page the whole contents of mfn without copying it: the
// frame keeps the slice's backing array, sealed, so the caller (an image, a
// cache chunk) and any number of frames may hold the same page as long as
// none of them writes through it again. A page of any other length than
// PageSize cannot stand for a frame and is refused with ErrBadOffset.
func (m *Memory) WritePage(mfn MFN, page []byte) error {
	if len(page) != PageSize {
		return fmt.Errorf("%w: page of %d bytes", ErrBadOffset, len(page))
	}
	f, err := m.frameAt(mfn)
	if err != nil {
		return err
	}
	m.putPage(f)
	m.setPage(f, (*[PageSize]byte)(page), true)
	return nil
}

// CopyFrameN copies src[i] into dst[i] for every i, charging ctx's meter once
// for the run (PageCopy × len). Validation of the slice lengths happens up
// front; a bad frame mid-run stops the copy there.
func (m *Memory) CopyFrameN(ctx obs.OpCtx, dst, src []MFN) error {
	return copyFrames(ctx, m, dst, src, allMFN)
}

// copyFramePTEs is CopyFrameN over the frames two runs of page-table entries
// reference: the clone path copies a private extent straight off the
// parent's table into the frames it allocated into the child's.
func (m *Memory) copyFramePTEs(ctx obs.OpCtx, dst, src []pte) error {
	return copyFrames(ctx, m, dst, src, pteMFNMask)
}

// copyFrames is CopyFrameN's body over either list form.
func copyFrames[T frameList](ctx obs.OpCtx, m *Memory, dst, src []T, mask T) error {
	if len(dst) != len(src) {
		return fmt.Errorf("mem: CopyFrameN with %d dst, %d src frames", len(dst), len(src))
	}
	for i, e := range src {
		if err := m.copyFrame(MFN(dst[i]&mask), MFN(e&mask)); err != nil {
			return err
		}
	}
	meter := ctx.Meter()
	meter.Charge(meter.Costs().PageCopy, len(dst))
	return nil
}

// copyFrame copies src into dst.
func (m *Memory) copyFrame(dst, src MFN) error {
	fs, err := m.frameAt(src)
	if err != nil {
		return err
	}
	fd, err := m.frameAt(dst)
	if err != nil {
		return err
	}
	page := m.pageOf(fs) // read first: dst may be src
	if page == nil {
		m.putPage(fd)
		return nil
	}
	to := m.pageOf(fd)
	if to == nil || fd.sealed() {
		to = getPage(false)
		m.setPage(fd, to, false)
	}
	*to = *page
	return nil
}

// SnapshotFrames captures the contents of every frame in mfns, one slot per
// input, with nil for frames whose backing store has never been written
// (they read as zeroes). Nothing is copied: each slot is the frame's own
// page, sealed on the way out, so the result is immutable — a later write
// to the frame goes to a private copy — and two captures of an unwritten
// frame return the very same backing array. Callers must not write through
// the returned pages.
func (m *Memory) SnapshotFrames(mfns []MFN) ([][]byte, error) {
	out := make([][]byte, len(mfns))
	for i, mfn := range mfns {
		f, err := m.frameAt(mfn)
		if err != nil {
			return nil, err
		}
		if page := m.pageOf(f); page != nil {
			f.seal()
			out[i] = page[:]
		}
	}
	return out, nil
}
