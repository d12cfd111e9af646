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
	"time"

	"nephele/internal/vclock"
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

// frame is one machine page. Data is allocated lazily: nil means the frame
// reads as zeroes (nothing was written to it since it was handed out, or it
// last took a copy of such a frame), so host memory follows the frames that
// hold data rather than the thousands of simulated domains. A page a frame
// lets go of goes back to pagePool unless it is sealed, and the next frame
// that needs a page takes it from there: the host holds the pages of live
// frames plus what the pool keeps until the collector drains it.
//
// pledges counts lazy-clone children that hold an unmaterialized claim on
// the frame's clone-time contents (DESIGN.md §13). A pledged frame's
// contents are immutable: any write path converts it to dom_cow first and
// copies away, and teardown keeps a pledged frame alive as a dom_cow
// "zombie" (refcount 0, pledges > 0) until the last pledge is adopted or
// cancelled.
//
// sealed means the data page is also held by a snapshot, an image or
// another frame, so it is never written in place again: SnapshotFrames and
// WritePage set it, and every path that stores into data replaces a sealed
// page with a private one first (DESIGN.md §10.1). The bit sits in the
// padding after inUse.
//
// data points at a whole page, never at less: the frame is 16 bytes of state
// and one pointer (DESIGN.md §10, "Table layouts"), and the exported surface
// converts at its edge — f.data[:] out, (*[PageSize]byte)(page) in — so the
// slices callers see are backed by the very arrays the frames hold.
type frame struct {
	owner    DomID
	refcount int32
	pledges  int32
	inUse    bool
	sealed   bool
	data     *[PageSize]byte
}

// frameChunkShift is log2 of the frame table's chunk size, 4096 frames: the
// metadata of frame mfn is chunks[mfn>>frameChunkShift][mfn&frameChunkMask].
// The table is materialized from MFN 0 up to the highest frame the pool ever
// handed out, under one invariant: every chunk but the first is whole (a
// full chunk, or what is left of the pool) from the moment it exists, and
// the first grows by doubling up to that size. So a frame, once in the
// table, is never copied or cleared again, whatever the pool grows to, while
// a pool that hands out a few hundred frames pays for those and not for
// 4096. A runCursor run never crosses a chunk edge, which is what lets its
// frames be one slice.
const (
	frameChunkShift = 12
	frameChunkMask  = 1<<frameChunkShift - 1
)

// growLocked extends the table, which covers the first m.watermark frames,
// to cover the first n (n <= m.total); m.mu must be held.
func (m *Memory) growLocked(n int) {
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

// Memory is the machine memory pool. All methods are safe for concurrent
// use by multiple simulated domains: one mutex guards the frame table, the
// free list and the accounting (DESIGN.md §10).
//
// Frame metadata is materialized lazily: frames above the allocation
// watermark have never existed, so creating a multi-GiB pool costs nothing
// until frames are handed out. Allocation is deterministic given the
// operation sequence: recycled frames LIFO, then the lowest never-allocated
// MFN.
type Memory struct {
	total int // pool size in frames

	mu        sync.Mutex
	watermark int      // frames handed out from MFN 0
	recycled  mfnStack // freed frames, reused LIFO
	usedByDom map[DomID]int
	free      int // frames not in use
	shared    int // frames owned by dom_cow
	// chunks is the frame table (see frameChunkShift). The outer slice is
	// fixed by New; its elements change under mu.
	chunks [][]frame

	// metrics is the opt-in hot-path instrumentation (SetMetrics); nil —
	// the default — keeps lockBatch and the COW fault path uninstrumented.
	metrics *memMetrics
}

// New creates a machine memory pool of totalBytes (rounded down to whole
// frames).
func New(totalBytes uint64) *Memory {
	total := int(totalBytes / PageSize)
	return &Memory{
		total:     total,
		usedByDom: make(map[DomID]int),
		free:      total,
		chunks:    make([][]frame, (total+frameChunkMask)>>frameChunkShift),
	}
}

// frameAt returns the frame metadata for mfn; m.mu must be held.
func (m *Memory) frameAt(mfn MFN) (*frame, error) {
	if int(mfn) >= m.total {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, mfn)
	}
	ch := m.chunks[mfn>>frameChunkShift]
	if off := int(mfn & frameChunkMask); off < len(ch) && ch[off].inUse {
		return &ch[off], nil
	}
	return nil, fmt.Errorf("%w: %d", ErrDoubleFree, mfn)
}

// frameErr is the "<kind>: <mfn>" error of the batched operations, built out
// of line so their allocation-free bodies box nothing on the error branch.
func frameErr(kind error, mfn MFN) error { return fmt.Errorf("%w: %d", kind, mfn) }

// runMode selects what a runCursor does with input entries that name no
// frame.
type runMode uint8

const (
	// runStrict ends the walk at the first out-of-range MFN: the
	// validate-before-mutate operations fail the whole call on it.
	runStrict runMode = iota
	// runSkipBad drops out-of-range MFNs and keeps walking (the
	// skip-and-record rule of ReleaseN and cancelPledged).
	runSkipBad
	// runSkipAbsent is runSkipBad that also drops page-table entries that
	// are not present, without recording anything: a torn-down mapping has
	// nothing to release.
	runSkipAbsent
)

// runCursor streams the maximal contiguous runs of a batched operation's
// input — a list of MFNs or the frames a run of page-table entries reference
// (exactly one of mfns and ptes is set) — one run per next call. A run is a
// frame-index range [a, b) of one chunk of the frame table, so the per-frame
// loops inside the critical section are plain walks over a slice of frames
// with no per-frame index math. Nothing is materialized: an operation walks
// its input once per pass over the frames, rewinding in between, so a table
// fragmented into one-page runs costs no memory.
//
// Escape analysis is not field-sensitive, so what the cursor's methods do
// decides whether a caller's short input list can stay on its stack: nothing
// reached through the receiver is stored in the heap or returned. That is
// why the bad frame is a number rather than an error.
type runCursor struct {
	m    *Memory
	mfns []MFN
	ptes []pte
	mode runMode

	// The current run, valid after next returned true.
	a, b  int // frame-index range within the chunk covering first
	first MFN // machine frame number of frame a

	i      int  // next input index
	anyBad bool // the current walk met an out-of-range MFN:
	bad    MFN  // the first one
}

// badFrame returns the error for the first out-of-range MFN the current
// walk met, nil when there was none.
func (c *runCursor) badFrame() error {
	if !c.anyBad {
		return nil
	}
	return frameErr(ErrBadFrame, c.bad)
}

// fail returns the error of a failed validation walk: err, unless the input
// also names an out-of-range frame, which outranks any per-frame error
// wherever in the input it sits. It rewalks the input to find out, which
// only a failing call pays for.
//
//nephele:noalloc
func (c *runCursor) fail(err error) error {
	for c.rewind(); c.next(); {
	}
	if c.anyBad {
		return c.badFrame()
	}
	return err
}

// frames returns the materialized slice of the current run's frames — a run
// lies inside one chunk of the frame table — and whether the run extends
// past what the table covers (those trailing frames have never been
// allocated, i.e. they are not in use).
//
//nephele:noalloc
func (c *runCursor) frames() ([]frame, bool) {
	fr := c.m.chunks[c.first>>frameChunkShift]
	if c.b <= len(fr) {
		return fr[c.a:c.b], false
	}
	if c.a >= len(fr) {
		return nil, true
	}
	return fr[c.a:], true
}

// mfn returns the machine frame number of the current run's j-th frame.
//
//nephele:noalloc
func (c *runCursor) mfn(j int) MFN { return c.first + MFN(j) }

// at returns the frame number the i-th input entry names.
//
//nephele:noalloc
func (c *runCursor) at(i int) MFN {
	if c.ptes == nil {
		return c.mfns[i]
	}
	return c.ptes[i].mfn()
}

// rewind restarts the walk from the first input entry.
//
//nephele:noalloc
func (c *runCursor) rewind() { c.i, c.anyBad = 0, false }

// next advances to the next run and reports whether there was one.
//
//nephele:noalloc
func (c *runCursor) next() bool {
	total := c.m.total
	n := len(c.mfns) + len(c.ptes)
	for c.i < n {
		var start MFN
		if c.ptes == nil {
			start = c.mfns[c.i]
		} else if p := c.ptes[c.i]; p.present() || c.mode != runSkipAbsent {
			start = p.mfn()
		} else {
			c.i++
			continue
		}
		c.i++
		if int(start) >= total {
			if !c.anyBad {
				c.anyBad, c.bad = true, start
			}
			if c.mode == runStrict {
				c.i = n
				return false
			}
			continue
		}
		// The run ends where the input stops being MFN-contiguous, at the
		// input's end, or at the edge of the frame-table chunk it started
		// in — or the pool's — whichever comes first. A run that
		// continues at all is likely long — an unfragmented table — so
		// after each single step the loops try four entries at a time;
		// over a fragmented table the first comparison ends it. Batched
		// operations spend their splitting time here, which is why each
		// input form has its own loop with nothing else in it.
		i, end := c.i, start+1
		stop := min(n, i+int(min(start|frameChunkMask, MFN(total-1))-start))
		if c.ptes == nil {
			in := c.mfns[:stop]
			for i < len(in) && in[i] == end {
				i, end = i+1, end+1
				for ; i+4 <= len(in); i, end = i+4, end+4 {
					if q := in[i : i+4 : i+4]; (q[0]^end)|(q[1]^(end+1))|(q[2]^(end+2))|(q[3]^(end+3)) != 0 {
						break
					}
				}
			}
		} else {
			// One masked compare per entry: the MFN field must be the next
			// frame number and, where absent entries are skipped, the present
			// bit set. end stays below the pool size, so it fits the field.
			in := c.ptes[:stop]
			mask, want := pteMFNMask, pte(end)
			if c.mode == runSkipAbsent {
				mask, want = mask|ptePresent, want|ptePresent
			}
			for i < len(in) && in[i]&mask == want {
				i, want = i+1, want+1
				for ; i+4 <= len(in); i, want = i+4, want+4 {
					if q := in[i : i+4 : i+4]; (q[0]&mask^want)|(q[1]&mask^(want+1))|(q[2]&mask^(want+2))|(q[3]&mask^(want+3)) != 0 {
						break
					}
				}
			}
			end = MFN(want & pteMFNMask)
		}
		c.i = i
		a := int(start & frameChunkMask)
		c.a, c.b, c.first = a, a+int(end-start), start
		return true
	}
	return false
}

// lockBatch takes the pool lock for a batched operation: it is the one
// acquisition the mem.shard_lock_* metrics count.
func (m *Memory) lockBatch() {
	if mm := m.metrics; mm != nil {
		start := time.Now() //nephele:nondeterministic-ok — lock-wait wall time is a diagnostic metric, never used for ordering
		m.mu.Lock()
		mm.lockWaitNS.Add(int64(time.Since(start))) //nephele:nondeterministic-ok — lock-wait wall time is a diagnostic metric, never used for ordering
		mm.lockAcquisitions.Inc()
		return
	}
	m.mu.Lock()
}

// TotalFrames reports the machine memory size in frames.
func (m *Memory) TotalFrames() int { return m.total }

// FreeFrames reports the number of unallocated frames.
func (m *Memory) FreeFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.free
}

// SharedFrames reports the number of frames owned by dom_cow.
func (m *Memory) SharedFrames() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shared
}

// UsedBy reports the number of frames currently owned by dom. Frames shared
// through dom_cow are charged to DomIDCOW.
func (m *Memory) UsedBy(dom DomID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.usedByDom[dom]
}

// initFrameLocked hands frame mfn out to dom; m.mu must be held and the
// table must already cover mfn.
func (m *Memory) initFrameLocked(mfn MFN, dom DomID) {
	f := m.frame(mfn)
	f.owner = dom
	f.refcount = 1
	f.inUse = true
	f.sealed = false
	f.data = nil
}

// dropUsageLocked decrements dom's usage count; m.mu must be held.
func (m *Memory) dropUsageLocked(dom DomID, n int) {
	if n == 0 {
		return
	}
	m.usedByDom[dom] -= n
	if m.usedByDom[dom] == 0 {
		delete(m.usedByDom, dom)
	}
}

// resetFrameLocked returns frame f, whose number is mfn, to the recycled
// stack without touching the per-owner usage accounting (the caller batches
// that). m.mu must be held.
func (m *Memory) resetFrameLocked(f *frame, mfn MFN) {
	f.inUse = false
	putPage(f)
	f.refcount = 0
	f.pledges = 0
	f.owner = DomIDInvalid
	m.recycled.push(mfn)
}

// AllocN allocates n frames for dom and charges the meter once for the
// whole run. A pool with fewer than n free frames refuses the call and
// allocates nothing.
func (m *Memory) AllocN(dom DomID, n int, meter *vclock.Meter) ([]MFN, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]MFN, n)
	if err := allocInto(m, dom, out, meter); err != nil {
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
func allocInto[T MFN | pte](m *Memory, dom DomID, out []T, meter *vclock.Meter) error {
	m.mu.Lock()
	if m.free < len(out) {
		free := m.free
		m.mu.Unlock()
		return fmt.Errorf("%w: want %d frames, %d free", ErrOutOfMemory, len(out), free)
	}
	took := 0
	for took < len(out) && m.recycled.n > 0 {
		mfn := m.recycled.pop()
		m.initFrameLocked(mfn, dom)
		out[took] = T(mfn)
		took++
	}
	if run := len(out) - took; run > 0 {
		m.growLocked(m.watermark + run)
		for i := range out[took:] {
			mfn := MFN(m.watermark + i)
			m.initFrameLocked(mfn, dom)
			out[took+i] = T(mfn)
		}
		m.watermark += run
	}
	m.usedByDom[dom] += len(out)
	m.free -= len(out)
	m.mu.Unlock()
	meter.Charge(meter.Costs().PageAlloc, len(out))
	return nil
}

// Owner reports the owner of a frame.
func (m *Memory) Owner(mfn MFN) (DomID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.frameAt(mfn)
	if err != nil {
		return DomIDInvalid, err
	}
	return f.owner, nil
}

// Refcount reports the sharer count of a frame.
func (m *Memory) Refcount(mfn MFN) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.frameAt(mfn)
	if err != nil {
		return 0, err
	}
	return int(f.refcount), nil
}

// ShareN shares a run of frames with refs sharers each, charging the meter
// once for the run. This is the page-sharing mechanism Nephele extends from
// Snowflock (§5.2): frames owned by dom are transferred to dom_cow with refs
// sharers (the owner plus the new family members) and charged one PageShare
// each, frames dom_cow already owns gain refs-1 references at no virtual
// cost, and subsequent writers fault and receive private copies. Validation
// runs before any mutation, so a failed call leaves the pool untouched.
//
//nephele:noalloc
func (m *Memory) ShareN(dom DomID, mfns []MFN, refs int, meter *vclock.Meter) error {
	_, err := m.shareRuns(dom, runCursor{m: m, mfns: mfns}, refs, meter)
	return err
}

// sharePTEs is ShareN over the frames referenced by a run of page-table
// entries: the cursor reads the MFNs off the entries, so the clone hot path
// builds neither an MFN list nor a list of runs for extents it only shares.
// It also reports how many frames it transferred, which is what a caller
// that must write-protect the previous owner's mappings needs to know.
//
//nephele:noalloc
func (m *Memory) sharePTEs(dom DomID, ptes []pte, refs int, meter *vclock.Meter) (int, error) {
	return m.shareRuns(dom, runCursor{m: m, ptes: ptes}, refs, meter)
}

// shareRuns is ShareN's body over either input form: one locked walk
// validates every frame, a second one mutates. It returns the number of
// frames transferred to dom_cow.
//
//nephele:noalloc
func (m *Memory) shareRuns(dom DomID, c runCursor, refs int, meter *vclock.Meter) (int, error) {
	m.lockBatch()
	defer m.mu.Unlock()
	if refs < 1 {
		return 0, fmt.Errorf("mem: share with %d refs", refs) //nephele:hotalloc-ok — caller bug, never on the warm path
	}
	transfers := 0
	for c.next() {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				return 0, c.fail(frameErr(ErrDoubleFree, c.mfn(j)))
			}
			if f.owner != DomIDCOW {
				if f.owner != dom {
					return 0, c.fail(fmt.Errorf("%w: frame %d owned by %d, shared by %d", ErrNotOwner, c.mfn(j), f.owner, dom)) //nephele:hotalloc-ok — validation failure, the call aborts
				}
				transfers++
			}
		}
		if short {
			return 0, c.fail(frameErr(ErrDoubleFree, c.mfn(len(fr))))
		}
	}
	if err := c.badFrame(); err != nil {
		return 0, err
	}
	for c.rewind(); c.next(); {
		fr, _ := c.frames()
		for j := range fr {
			f := &fr[j]
			if f.owner == DomIDCOW {
				f.refcount += int32(refs - 1)
				continue
			}
			f.owner = DomIDCOW
			f.refcount = int32(refs)
		}
	}
	if transfers > 0 {
		// Every transferred frame was validated as owned by dom, so the
		// per-owner accounting moves once instead of per frame.
		m.dropUsageLocked(dom, transfers)
		m.usedByDom[DomIDCOW] += transfers //nephele:hotalloc-ok — one int-keyed entry, re-inserted only after the pool's last shared frame went
		m.shared += transfers
		meter.Charge(meter.Costs().PageShare, transfers)
	}
	return transfers, nil
}

// AddSharerN increments the reference count of a run of already-shared
// frames by n each. Validation runs before any mutation. This is the
// 2nd..Nth-clone fast path: re-cloning an already-COW parent is nothing but
// sharer bumps.
//
//nephele:noalloc
func (m *Memory) AddSharerN(mfns []MFN, n int) error {
	return m.addSharerRuns(runCursor{m: m, mfns: mfns}, n)
}

// addSharerPTEs is AddSharerN over the frames referenced by a run of
// page-table entries (the 2nd..Nth-clone fast path works straight off the
// parent's table).
//
//nephele:noalloc
func (m *Memory) addSharerPTEs(ptes []pte, n int) error {
	return m.addSharerRuns(runCursor{m: m, ptes: ptes}, n)
}

// addSharerRuns bumps sharer counts in a single fused validate+mutate walk;
// on a validation failure every bump applied so far is subtracted back, so
// a failed call still leaves the pool untouched (the increment is its own
// exact inverse, which is what makes the fusion safe). One pass instead of
// two matters: this is the entire cost of a 2nd..Nth clone.
//
//nephele:noalloc
func (m *Memory) addSharerRuns(c runCursor, n int) error {
	m.lockBatch()
	defer m.mu.Unlock()
	runs := 0 // whole runs bumped so far
	for ; c.next(); runs++ {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				bad := c.mfn(j)
				c.unbump(n, runs, j)
				return c.fail(frameErr(ErrDoubleFree, bad))
			}
			if f.owner != DomIDCOW {
				bad := c.mfn(j)
				c.unbump(n, runs, j)
				return c.fail(fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, bad, f.owner)) //nephele:hotalloc-ok — validation failure, the call aborts
			}
			f.refcount += int32(n)
		}
		if short {
			bad := c.mfn(len(fr))
			c.unbump(n, runs, len(fr))
			return c.fail(frameErr(ErrDoubleFree, bad))
		}
	}
	if err := c.badFrame(); err != nil {
		// The strict walk stopped at the out-of-range entry, after runs
		// whole runs: the same walk again reaches exactly those.
		c.unbump(n, runs, 0)
		return err
	}
	return nil
}

// unbump is addSharerRuns' undo: it re-walks the input from the start and
// subtracts n from every frame of the first runs runs and from the first j
// frames of the one after them.
//
//nephele:noalloc
func (c *runCursor) unbump(n, runs, j int) {
	for c.rewind(); c.next(); runs-- {
		fr, _ := c.frames()
		if runs == 0 {
			fr = fr[:j]
		}
		for k := range fr {
			fr[k].refcount -= int32(n)
		}
		if runs == 0 {
			return
		}
	}
}

// resolveCOW resolves a write fault by dom on the frame behind a COW-marked
// pte and returns the MFN the domain maps afterwards. It is the one
// write-fault resolver, and it classifies the frame under the lock each time
// it looks at it (DESIGN.md §10, "Frame states and transitions"):
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
// The private frame is allocated between two looks, with the lock released:
// the second look classifies again, which is all the handling a sharer that
// dropped out or a drain that converted the frame in between needs.
func (m *Memory) resolveCOW(dom DomID, mfn MFN, meter *vclock.Meter) (MFN, error) {
	if int(mfn) >= m.total {
		return 0, frameErr(ErrBadFrame, mfn)
	}
	var one [1]MFN
	var spare []MFN // one[:], the frame a copy-away fills, once one is known to be needed
	for {
		// The first look takes the plain lock, which the lock metrics leave
		// out; the second counts as a batched acquisition.
		if spare == nil {
			m.mu.Lock()
		} else {
			m.lockBatch()
		}
		f, err := m.frameAt(mfn)
		if err == nil && f.owner != DomIDCOW && f.owner != dom {
			err = fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, mfn, f.owner)
		}
		if err != nil {
			m.mu.Unlock()
			m.ReleaseN(dom, spare)
			return 0, err
		}
		if f.owner == dom && f.pledges > 0 {
			m.reownLocked(f, DomIDCOW)
			meter.Charge(meter.Costs().PageShare, 1)
		}
		if f.pledges == 0 && (f.owner == dom || f.refcount == 1) {
			if f.owner == DomIDCOW {
				m.reownLocked(f, dom)
			}
			m.mu.Unlock()
			if spare != nil {
				m.ReleaseN(dom, spare)
			}
			meter.Charge(meter.Costs().PageUnshare, 1)
			return mfn, nil
		}
		if spare == nil {
			m.mu.Unlock()
			if err := allocInto(m, dom, one[:], meter); err != nil {
				return 0, err
			}
			spare = one[:]
			continue
		}
		if f.data != nil {
			nf := m.frame(spare[0])
			nf.data = getPage(false)
			*nf.data = *f.data
		}
		f.refcount--
		m.mu.Unlock()
		meter.Charge(meter.Costs().PageUnshare, 1)
		return spare[0], nil
	}
}

// reownLocked moves frame f between a domain and dom_cow, whichever way to
// says, with the usage and shared accounting; the sharer count is the
// caller's business. m.mu must be held.
func (m *Memory) reownLocked(f *frame, to DomID) {
	m.dropUsageLocked(f.owner, 1)
	f.owner = to
	m.usedByDom[to]++
	if to == DomIDCOW {
		m.shared++
	} else {
		m.shared--
	}
}

// ReleaseN releases a run of frames on behalf of dom, applying the
// domain-teardown rules per frame: dom_cow frames drop one sharer reference
// (freeing on the last), frames owned by dom are freed, and frames owned by
// anyone else are skipped. Bad frames are recorded and skipped; the first
// error is returned after the whole run is processed.
//
//nephele:noalloc
func (m *Memory) ReleaseN(dom DomID, mfns []MFN) error {
	return m.releaseRuns(dom, runCursor{m: m, mfns: mfns, mode: runSkipBad})
}

// releasePTEs is ReleaseN over the frames referenced by the present entries
// of a page table: releasing a whole space builds neither an MFN list nor a
// list of runs, however fragmented the table. Entries that are not present
// are skipped without error (an already torn-down mapping has nothing to
// release).
//
//nephele:noalloc
func (m *Memory) releasePTEs(dom DomID, ptes []pte) error {
	return m.releaseRuns(dom, runCursor{m: m, ptes: ptes, mode: runSkipAbsent})
}

// releaseRuns applies the domain-teardown rules in one locked walk. An
// out-of-range MFN outranks a per-frame error in what is returned.
//
//nephele:noalloc
func (m *Memory) releaseRuns(dom DomID, c runCursor) error {
	m.lockBatch()
	defer m.mu.Unlock()
	var firstErr error
	var ownFreed, cowFreed, zombied int
	for c.next() {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				if firstErr == nil {
					firstErr = frameErr(ErrDoubleFree, c.mfn(j))
				}
				continue
			}
			switch f.owner {
			case DomIDCOW:
				f.refcount--
				if f.refcount == 0 && f.pledges == 0 {
					cowFreed++
					m.resetFrameLocked(f, c.mfn(j))
				}
			case dom:
				if f.pledges > 0 {
					// Lazy children still claim the clone-time contents:
					// keep the frame as a dom_cow zombie.
					f.owner = DomIDCOW
					f.refcount = 0
					zombied++
				} else {
					ownFreed++
					m.resetFrameLocked(f, c.mfn(j))
				}
			}
		}
		if short && firstErr == nil {
			firstErr = frameErr(ErrDoubleFree, c.mfn(len(fr)))
		}
	}
	m.dropUsageLocked(dom, ownFreed+zombied)
	m.dropUsageLocked(DomIDCOW, cowFreed)
	if zombied > 0 {
		m.usedByDom[DomIDCOW] += zombied //nephele:hotalloc-ok — one int-keyed entry, re-inserted only after the pool's last shared frame went
	}
	m.shared += zombied - cowFreed
	m.free += ownFreed + cowFreed
	if c.anyBad {
		return c.badFrame()
	}
	return firstErr
}

// Read copies the contents at (mfn, off) into buf. Reading a never-written
// frame yields zeroes.
func (m *Memory) Read(mfn MFN, off int, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.frameAt(mfn)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > PageSize {
		return ErrBadOffset
	}
	if f.data == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, f.data[off:])
	return nil
}

// Write stores buf at (mfn, off). Write does not check ownership or
// sharing; address spaces enforce COW before calling it. A sealed page is
// replaced by a private copy first, so holders of the old slice never see
// the write; the old page itself is theirs and never recycled.
func (m *Memory) Write(mfn MFN, off int, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.frameAt(mfn)
	if err != nil {
		return err
	}
	if off < 0 || off+len(buf) > PageSize {
		return ErrBadOffset
	}
	if f.data == nil || f.sealed {
		// Only a partial write to a frame with no page leaves bytes of the
		// new page that neither the old page nor buf overwrites.
		old, partial := f.data, len(buf) < PageSize
		f.data, f.sealed = getPage(old == nil && partial), false
		if old != nil && partial {
			*f.data = *old
		}
	}
	copy(f.data[off:], buf)
	return nil
}

// WritePage makes page the whole contents of mfn without copying it: the
// frame keeps the slice's backing array, sealed, so the caller (an image, a
// cache chunk) and any number of frames may hold the same page as long as
// none of them writes through it again. A page shorter than PageSize cannot
// stand for a frame and is stored as the copying prefix write
// Write(mfn, 0, page) instead; a longer one is refused.
func (m *Memory) WritePage(mfn MFN, page []byte) error {
	if len(page) != PageSize {
		return m.Write(mfn, 0, page)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.frameAt(mfn)
	if err != nil {
		return err
	}
	putPage(f)
	f.data, f.sealed = (*[PageSize]byte)(page), true
	return nil
}

// CopyFrameN copies src[i] into dst[i] for every i, charging the meter once
// for the run (PageCopy × len). Validation of the slice lengths happens up
// front; a bad frame mid-run stops the copy there.
func (m *Memory) CopyFrameN(dst, src []MFN, meter *vclock.Meter) error {
	return m.copyRuns(dst, runCursor{m: m, mfns: src, mode: runSkipBad}, meter)
}

// copyFramePTEs is CopyFrameN with the frames a run of page-table entries
// references as the sources (the clone path copies a private extent straight
// off the parent's table).
func (m *Memory) copyFramePTEs(dst []MFN, src []pte, meter *vclock.Meter) error {
	return m.copyRuns(dst, runCursor{m: m, ptes: src, mode: runSkipBad}, meter)
}

// copyRuns is CopyFrameN's body over either source form.
func (m *Memory) copyRuns(dst []MFN, s runCursor, meter *vclock.Meter) error {
	if n := len(s.mfns) + len(s.ptes); len(dst) != n {
		return fmt.Errorf("mem: CopyFrameN with %d dst, %d src frames", len(dst), n)
	}
	m.lockBatch()
	defer m.mu.Unlock()
	for i := range dst {
		if err := m.copyFrameLocked(dst[i], s.at(i)); err != nil {
			return err
		}
	}
	meter.Charge(meter.Costs().PageCopy, len(dst))
	return nil
}

// copyFrameLocked copies src into dst; m.mu must be held.
func (m *Memory) copyFrameLocked(dst, src MFN) error {
	fs, err := m.frameAt(src)
	if err != nil {
		return err
	}
	fd, err := m.frameAt(dst)
	if err != nil {
		return err
	}
	page := fs.data // read first: dst may be src
	if page == nil {
		putPage(fd)
		return nil
	}
	if fd.data == nil || fd.sealed {
		fd.data, fd.sealed = getPage(false), false
	}
	*fd.data = *page
	return nil
}

// SnapshotFrames captures the contents of every frame in mfns, one slot per
// input, with nil for frames whose backing store has never been written
// (they read as zeroes). Nothing is copied: each slot is the frame's own
// page, sealed on the way out, so the result is immutable — a later write
// to the frame goes to a private copy — and two captures of an unwritten
// frame return the very same backing array. Callers must not write through
// the returned pages. The capture holds the pool lock throughout, so it is
// one coherent pass: a concurrent ReleaseN orders strictly before or after
// the whole snapshot.
func (m *Memory) SnapshotFrames(mfns []MFN) ([][]byte, error) {
	m.lockBatch()
	defer m.mu.Unlock()
	out := make([][]byte, len(mfns))
	for i, mfn := range mfns {
		f, err := m.frameAt(mfn)
		if err != nil {
			return nil, err
		}
		if f.data != nil {
			f.sealed = true
			out[i] = f.data[:]
		}
	}
	return out, nil
}
