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
	"math/bits"
	"sync"
	"sync/atomic"
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

// Shard sizing. The pool is split into contiguous MFN-range shards (a
// power-of-two count); pools too small to give every shard
// minFramesPerShard collapse to fewer shards so tiny test pools stay
// single-lock and fully deterministic.
const (
	// maxShards caps the shard count New picks (a power of two; shard lock
	// masks are uint32 bitmaps, so it must stay below 32).
	maxShards = 16
	// minFramesPerShard keeps shards from becoming so small that a single
	// guest straddles many of them (4096 frames = 16 MiB).
	minFramesPerShard = 4096
)

// shard is one MFN-range slice of the pool with its own lock, free list,
// watermark recycler and accounting. A frame's metadata belongs to exactly
// one shard (the one covering its MFN; it lives in the layout's frame table,
// in chunks only that shard's lock holder touches), so per-domain usage and
// the dom_cow sharer table are naturally partitioned. The struct is padded to
// a multiple of the cache line size: shards live in one slice, and without
// padding two neighbours' mutexes would share a line and bounce it between
// cores even when the workloads are disjoint.
type shard struct {
	mu sync.Mutex

	lo   MFN // first MFN of the range
	size int // frames in the range (0 for tail shards past the pool end)

	watermark int      // frames handed out from the range start
	recycled  mfnStack // freed frames, reused LIFO
	usedByDom map[DomID]int

	// free and shared mirror the lock-held state so aggregate readers
	// (FreeFrames, SharedFrames) can sum them without taking every lock;
	// they are only mutated under mu, bracketed by the pool's seqlock.
	free   atomic.Int64
	shared atomic.Int64

	_ [40]byte // pad to 128 bytes
}

// frameChunkShift is log2 of the frame table's chunk size, 4096 frames: the
// metadata of frame mfn is chunks[mfn>>cshift][mfn&cmask] of the layout,
// where cshift is frameChunkShift or, in a pool whose shards are smaller
// than that, the shard shift — so a chunk always lies inside one shard, and
// that shard's lock guards it. A shard's part of the table is materialized
// from its range start up to the highest frame it ever handed out, under one
// invariant: every chunk of a shard but its first is whole (a full chunk, or
// what is left of the range) from the moment it exists, and the first grows
// by doubling up to that size. So a frame, once in the table, is never
// copied or cleared again, whatever the pool grows to, while a shard that
// hands out a few hundred frames (a small pool, a shard few domains call
// home) pays for those and not for 4096. A runCursor run never crosses a
// chunk edge, which is what lets its frames be one slice.
const frameChunkShift = 12

// growLocked extends sh's part of the table, which covers its first
// sh.watermark frames, to cover its first n (n <= sh.size); sh must be
// locked.
func (lay *layout) growLocked(sh *shard, n int) {
	base := int(sh.lo >> lay.cshift)
	chunk := 1 << lay.cshift
	whole := min(chunk, sh.size)
	if first, want := lay.chunks[base], min(n, whole); want > len(first) {
		if want > cap(first) {
			first = make([]frame, want, min(max(want, 2*cap(first)), whole))
			copy(first, lay.chunks[base])
		}
		lay.chunks[base] = first[:want]
	}
	for k := max(1, sh.watermark>>lay.cshift); k<<lay.cshift < n; k++ {
		if lay.chunks[base+k] == nil {
			lay.chunks[base+k] = make([]frame, min(chunk, sh.size-k<<lay.cshift))
		}
	}
}

// frame returns the metadata of mfn, which the table must cover.
func (lay *layout) frame(mfn MFN) *frame {
	return &lay.chunks[mfn>>lay.cshift][mfn&lay.cmask]
}

// mfnStackChunk is the size of one chunk of a shard's free stack, in MFNs.
const (
	mfnStackShift = 10
	mfnStackChunk = 1 << mfnStackShift
)

// mfnStack is a shard's LIFO of freed frames. Like the frame table it is
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

// layout is the pool's shard geometry: the stride, the shard slice, and
// everything derived from them. New computes it once and nothing changes it
// afterwards, so the geometry is read without any lock.
type layout struct {
	total  int  // pool size in frames
	stride int  // frames per shard range (power of two)
	shift  uint // log2(stride): MFN → shard index is one shift
	shards []shard

	// The frame table (see frameChunkShift). The outer slice is fixed; each
	// element is read and written under the lock of the shard covering it.
	cshift uint // log2 of the chunk size: min(frameChunkShift, shift)
	cmask  MFN  // chunk size - 1
	chunks [][]frame
}

// Memory is the machine memory pool. All methods are safe for concurrent
// use by multiple simulated domains.
//
// The pool is sharded: MFNs are split into contiguous power-of-two-count
// ranges, each with its own mutex, free list, watermark/LIFO recycler and
// ownership accounting, so concurrent clones of different parents lock
// disjoint shards instead of serializing on one pool mutex. Operations on
// frame runs lock only the shards the run touches, always in ascending
// shard order (the pool-wide lock order, see DESIGN.md §10), and
// cross-shard runs split at shard boundaries. Global counters (free
// frames, dom_cow frames) are per-shard atomics aggregated under a
// seqlock-style read path so aggregate reads stay one coherent pass.
//
// Frame metadata is materialized lazily: frames above a shard's allocation
// watermark have never existed, so creating a multi-GiB pool costs nothing
// until frames are handed out. Allocation is deterministic given the
// operation sequence: a domain allocates from its home shard (a
// multiplicative hash of its ID) first — recycled frames
// LIFO, then the lowest never-allocated MFN of the range — and overflows
// to the next shards in ascending wrap-around order.
type Memory struct {
	total int // pool size in frames

	// lay is the shard geometry, set once by New.
	lay *layout

	// accSeq is bumped (to odd, then back to even is NOT guaranteed with
	// concurrent writers — readers use plain equality) around every
	// counter mutation; aggregate readers retry while it moves.
	accSeq atomic.Uint64

	// metrics is the opt-in hot-path instrumentation (SetMetrics); nil —
	// the default — keeps lockMask and the COW fault path uninstrumented.
	metrics atomic.Pointer[memMetrics]
}

// newLayout builds the shard slice for total frames at the given shard
// count: stride is ceil(total/nsh) rounded up to a power of two so mapping
// an MFN to its shard is a single shift, and tail shards past the pool end
// cover a short or empty range.
func newLayout(total, nsh int) *layout {
	per := (total + nsh - 1) / nsh
	if per < 1 {
		per = 1
	}
	shift := uint(bits.Len(uint(per - 1))) // ceil(log2(per))
	stride := 1 << shift
	lay := &layout{total: total, stride: stride, shift: shift, shards: make([]shard, nsh)}
	lay.cshift = min(frameChunkShift, shift)
	lay.cmask = 1<<lay.cshift - 1
	lay.chunks = make([][]frame, (total+int(lay.cmask))>>lay.cshift)
	for i := range lay.shards {
		sh := &lay.shards[i]
		sh.lo = MFN(i * stride)
		sh.size = 0
		if rest := total - i*stride; rest > 0 {
			sh.size = stride
			if rest < stride {
				sh.size = rest
			}
		}
		sh.usedByDom = make(map[DomID]int)
		sh.free.Store(int64(sh.size))
	}
	return lay
}

// New creates a machine memory pool of totalBytes (rounded down to whole
// frames). The shard count is always a power of two and the stride is
// rounded up to a power of two, so mapping an MFN to its shard is a single
// shift on the clone hot path; when the total is not a multiple of the
// stride, tail shards cover a short or empty range.
func New(totalBytes uint64) *Memory {
	total := int(totalBytes / PageSize)
	nsh := 1
	for nsh < maxShards && total/(nsh*2) >= minFramesPerShard {
		nsh *= 2
	}
	return &Memory{total: total, lay: newLayout(total, nsh)}
}

// Shards reports the number of MFN-range shards the pool is split into.
func (m *Memory) Shards() int { return len(m.lay.shards) }

// Stride reports the frames-per-shard stride (a power of two).
func (m *Memory) Stride() int { return m.lay.stride }

// shardIdx maps an in-range MFN to its shard index.
func (lay *layout) shardIdx(mfn MFN) int { return int(mfn >> lay.shift) }

// shardChecked returns the shard covering mfn, or ErrBadFrame.
func (lay *layout) shardChecked(mfn MFN) (*shard, error) {
	if int(mfn) >= lay.total {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, mfn)
	}
	return &lay.shards[lay.shardIdx(mfn)], nil
}

// frameAt returns the frame metadata for mfn. The shard covering mfn must
// be locked by the caller.
func (lay *layout) frameAt(mfn MFN) (*frame, error) {
	if int(mfn) >= lay.total {
		return nil, fmt.Errorf("%w: %d", ErrBadFrame, mfn)
	}
	ch := lay.chunks[mfn>>lay.cshift]
	if off := int(mfn & lay.cmask); off < len(ch) && ch[off].inUse {
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

// runCursor streams the maximal contiguous same-shard runs of a batched
// operation's input — a list of MFNs or the frames a run of page-table
// entries reference (exactly one of mfns and ptes is set) — one run per next
// call. A run is a frame-index range [a, b) of one chunk of the frame table,
// in shard si, so the per-frame loops inside the critical sections are plain
// walks over a slice of frames with no per-frame index math. Nothing is
// materialized: an operation walks its input once unlocked for the shard
// mask and again under the locks for each pass over the frames, rewinding
// in between, so a table fragmented into one-page runs costs no memory.
//
// Escape analysis is not field-sensitive, so what the cursor's methods do
// decides whether a caller's short input list can stay on its stack: nothing
// reached through the receiver is stored in the heap or returned. That is
// why the run is integers rather than a *shard (operations that mutate a
// shard's free list index the layout's shard slice) and the bad frame is a
// number rather than an error.
type runCursor struct {
	lay  *layout
	mfns []MFN
	ptes []pte
	mode runMode

	// The current run, valid after next returned true.
	si    int // shard index
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

// frames returns the materialized slice of the current run's frames — a run
// lies inside one chunk of the frame table — and whether the run extends
// past what the table covers (those trailing frames have never been
// allocated, i.e. they are not in use).
//
//nephele:noalloc
func (c *runCursor) frames() ([]frame, bool) {
	fr := c.lay.chunks[c.first>>c.lay.cshift]
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
	lay := c.lay
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
		if int(start) >= lay.total {
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
		// in — which lies inside one shard and ends with it, or with the
		// pool — whichever comes first. A run that
		// continues at all is likely long — an unfragmented table — so
		// after each single step the loops try four entries at a time;
		// over a fragmented table the first comparison ends it. Batched
		// operations spend their splitting time here, which is why each
		// input form has its own loop with nothing else in it.
		i, end := c.i, start+1
		stop := min(n, i+int(min(start|lay.cmask, MFN(lay.total-1))-start))
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
		a := int(start & lay.cmask)
		c.si, c.a, c.b, c.first = int(start>>lay.shift), a, a+int(end-start), start
		return true
	}
	return false
}

// lockRuns binds c to the pool's layout, walks the input once without locks
// (only the immutable geometry is read) for the set of shards its runs touch
// and locks those. A strict cursor over an out-of-range MFN fails here,
// before any lock is taken; the skipping modes report theirs from the locked
// walk. On success c is rewound and the caller owns the locks:
// unlockMask(mask).
//
//nephele:noalloc
func (m *Memory) lockRuns(c *runCursor) (uint32, error) {
	c.lay = m.lay
	mask := c.mask()
	if c.anyBad && c.mode == runStrict {
		return 0, c.badFrame()
	}
	c.rewind()
	m.lockMask(mask)
	return mask, nil
}

// mask rewinds c, walks the whole input and returns the set of shards its
// runs touch.
//
//nephele:noalloc
func (c *runCursor) mask() uint32 {
	var mask uint32
	for c.rewind(); c.next(); {
		mask |= 1 << c.si
	}
	return mask
}

// lockMask locks the shards in mask in ascending index order — the single
// pool-wide lock order that rules out lock-order inversion between
// Snapshot, ReleaseN and every other multi-shard operation. It is the one
// designated multi-shard acquisition point: everything else must lock one
// shard at a time or funnel through it (enforced by nephele-lint).
//
//nephele:lockorder-helper — set bits are walked low to high, so acquisition order is ascending by construction.
func (m *Memory) lockMask(mask uint32) {
	lay := m.lay
	if mm := m.metrics.Load(); mm != nil {
		start := time.Now() //nephele:nondeterministic-ok — lock-wait wall time is a diagnostic metric, never used for ordering
		for w := mask; w != 0; w &= w - 1 {
			lay.shards[bits.TrailingZeros32(w)].mu.Lock()
		}
		mm.lockWaitNS.Add(int64(time.Since(start))) //nephele:nondeterministic-ok — lock-wait wall time is a diagnostic metric, never used for ordering
		mm.lockAcquisitions.Add(int64(bits.OnesCount32(mask)))
		return
	}
	for w := mask; w != 0; w &= w - 1 {
		lay.shards[bits.TrailingZeros32(w)].mu.Lock()
	}
}

func (m *Memory) unlockMask(mask uint32) {
	lay := m.lay
	for w := mask; w != 0; w &= w - 1 {
		lay.shards[bits.TrailingZeros32(w)].mu.Unlock()
	}
}

// lockShard locks the single shard covering mfn.
func (m *Memory) lockShard(mfn MFN) (*shard, error) {
	sh, err := m.lay.shardChecked(mfn)
	if err != nil {
		return nil, err
	}
	sh.mu.Lock()
	return sh, nil
}

// allMask covers every shard.
func (lay *layout) allMask() uint32 { return uint32(1)<<len(lay.shards) - 1 }

// beginAccount / endAccount bracket mutations of the per-shard atomic
// counters so aggregate readers retry instead of summing mid-update.
// Readers use equality of the two loads (not parity): any in-flight writer
// moves the sequence between them.
func (m *Memory) beginAccount() { m.accSeq.Add(1) }
func (m *Memory) endAccount()   { m.accSeq.Add(1) }

// sumCounters aggregates one per-shard atomic across all shards under the
// seqlock read path, falling back to locking every shard if writers never
// leave a quiescent window.
func (m *Memory) sumCounters(read func(*shard) int64) int {
	lay := m.lay
	sum := func() (s int64) {
		for i := range lay.shards {
			s += read(&lay.shards[i])
		}
		return s
	}
	for tries := 0; tries < 64; tries++ {
		s1 := m.accSeq.Load()
		if s := sum(); m.accSeq.Load() == s1 {
			return int(s)
		}
	}
	m.lockMask(lay.allMask())
	defer m.unlockMask(lay.allMask())
	return int(sum())
}

// TotalFrames reports the machine memory size in frames.
func (m *Memory) TotalFrames() int { return m.total }

// FreeFrames reports the number of unallocated frames.
func (m *Memory) FreeFrames() int {
	return m.sumCounters(func(sh *shard) int64 { return sh.free.Load() })
}

// SharedFrames reports the number of frames owned by dom_cow.
func (m *Memory) SharedFrames() int {
	return m.sumCounters(func(sh *shard) int64 { return sh.shared.Load() })
}

// UsedBy reports the number of frames currently owned by dom. Frames shared
// through dom_cow are charged to DomIDCOW. Each shard is read under its own
// lock; a frame's accounting lives wholly in its shard, so the sum is a
// consistent point-in-time value per shard.
func (m *Memory) UsedBy(dom DomID) int {
	used := 0
	for i := range m.lay.shards {
		sh := &m.lay.shards[i]
		sh.mu.Lock()
		used += sh.usedByDom[dom]
		sh.mu.Unlock()
	}
	return used
}

// homeShardMul is the 64-bit golden-ratio multiplier (2^64 / φ) of
// Fibonacci hashing. Its top bits mix even sequential inputs well, which
// is exactly what domain IDs are: hv hands them out consecutively, and the
// previous dom % nshards mapping marched whole CloneMany batches across
// neighbouring shards in lockstep.
const homeShardMul = 0x9E3779B97F4A7C15

// homeShard is the shard a domain's allocations start from. Spreading
// domains across shards is what keeps concurrent clones of different
// parents off each other's locks.
//
// The mapping takes the top log2(nshards) bits of the mixed ID.
func (lay *layout) homeShard(dom DomID) int {
	return int((uint64(dom) * homeShardMul) >> (64 - uint(bits.Len(uint(len(lay.shards)-1)))))
}

// initFrameLocked hands frame mfn out to dom; its shard must be locked and
// the table must already cover it.
func (lay *layout) initFrameLocked(mfn MFN, dom DomID) {
	f := lay.frame(mfn)
	f.owner = dom
	f.refcount = 1
	f.inUse = true
	f.sealed = false
	f.data = nil
}

// takeLocked allocates up to len(out) frames from sh, a shard of lay, for
// dom, storing them in out and returning how many it took: recycled frames
// first (most recent first), then a contiguous watermark run — the same
// order the single-pool allocator made within one range. sh must be locked.
// It only stores into out, so a caller's one-frame array stays on its stack.
func (lay *layout) takeLocked(m *Memory, sh *shard, dom DomID, out []MFN) int {
	took := 0
	for took < len(out) && sh.recycled.n > 0 {
		mfn := sh.recycled.pop()
		lay.initFrameLocked(mfn, dom)
		out[took] = mfn
		took++
	}
	if rest := len(out) - took; rest > 0 {
		run := sh.size - sh.watermark
		if run > rest {
			run = rest
		}
		if run > 0 {
			lay.growLocked(sh, sh.watermark+run)
			for i := 0; i < run; i++ {
				mfn := sh.lo + MFN(sh.watermark+i)
				lay.initFrameLocked(mfn, dom)
				out[took+i] = mfn
			}
			sh.watermark += run
			took += run
		}
	}
	if took > 0 {
		sh.usedByDom[dom] += took
		m.beginAccount()
		sh.free.Add(-int64(took))
		m.endAccount()
	}
	return took
}

// dropUsageLocked decrements dom's usage count on sh; sh must be locked.
func (sh *shard) dropUsageLocked(dom DomID, n int) {
	if n == 0 {
		return
	}
	sh.usedByDom[dom] -= n
	if sh.usedByDom[dom] == 0 {
		delete(sh.usedByDom, dom)
	}
}

// resetFrameLocked returns frame f of sh, whose number is mfn, to the
// recycled stack without touching the per-owner usage accounting (the caller
// batches that). sh must be locked.
func (sh *shard) resetFrameLocked(f *frame, mfn MFN) {
	f.inUse = false
	putPage(f)
	f.refcount = 0
	f.pledges = 0
	f.owner = DomIDInvalid
	sh.recycled.push(mfn)
}

// AllocN allocates n frames for dom, locking each shard it draws from once
// and charging the meter once for the whole run. On failure nothing stays
// allocated: frames taken from earlier shards are returned before the
// error comes back.
func (m *Memory) AllocN(dom DomID, n int, meter *vclock.Meter) ([]MFN, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]MFN, n)
	if err := m.allocInto(dom, out, meter); err != nil {
		return nil, err
	}
	return out, nil
}

// allocInto is AllocN into the caller's slice, filling all of it. Nothing it
// calls keeps out, so the write-fault path's one-frame array costs no heap.
func (m *Memory) allocInto(dom DomID, out []MFN, meter *vclock.Meter) error {
	lay := m.lay
	home := lay.homeShard(dom)
	got := 0
	for k := 0; k < len(lay.shards) && got < len(out); k++ {
		sh := &lay.shards[(home+k)%len(lay.shards)]
		sh.mu.Lock()
		got += lay.takeLocked(m, sh, dom, out[got:])
		sh.mu.Unlock()
	}
	if got < len(out) {
		m.ReleaseN(dom, out[:got])
		return fmt.Errorf("%w: want %d frames, %d free", ErrOutOfMemory, len(out), m.FreeFrames())
	}
	meter.Charge(meter.Costs().PageAlloc, len(out))
	return nil
}

// Owner reports the owner of a frame.
func (m *Memory) Owner(mfn MFN) (DomID, error) {
	sh, err := m.lockShard(mfn)
	if err != nil {
		return DomIDInvalid, err
	}
	defer sh.mu.Unlock()
	f, err := m.lay.frameAt(mfn)
	if err != nil {
		return DomIDInvalid, err
	}
	return f.owner, nil
}

// Refcount reports the sharer count of a frame.
func (m *Memory) Refcount(mfn MFN) (int, error) {
	sh, err := m.lockShard(mfn)
	if err != nil {
		return 0, err
	}
	defer sh.mu.Unlock()
	f, err := m.lay.frameAt(mfn)
	if err != nil {
		return 0, err
	}
	return int(f.refcount), nil
}

// ShareN shares a run of frames with refs sharers each, locking the shards
// the run touches (ascending) and charging the meter once for the run. This
// is the page-sharing mechanism Nephele extends from Snowflock (§5.2):
// frames owned by dom are transferred to dom_cow with refs sharers (the
// owner plus the new family members) and charged one PageShare each, frames
// dom_cow already owns gain refs-1 references at no virtual cost, and
// subsequent writers fault and receive private copies. Validation runs
// before any mutation, so a failed call leaves the pool untouched.
//
//nephele:noalloc
func (m *Memory) ShareN(dom DomID, mfns []MFN, refs int, meter *vclock.Meter) error {
	_, err := m.shareRuns(dom, runCursor{mfns: mfns}, refs, meter)
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
	return m.shareRuns(dom, runCursor{ptes: ptes}, refs, meter)
}

// shareRuns is ShareN's body over either input form: one locked walk
// validates every frame, a second one mutates. It returns the number of
// frames transferred to dom_cow.
//
//nephele:noalloc
func (m *Memory) shareRuns(dom DomID, c runCursor, refs int, meter *vclock.Meter) (int, error) {
	mask, err := m.lockRuns(&c)
	if err != nil {
		return 0, err
	}
	defer m.unlockMask(mask)
	if refs < 1 {
		return 0, fmt.Errorf("mem: share with %d refs", refs) //nephele:hotalloc-ok — caller bug, never on the warm path
	}
	transfers := 0
	for c.next() {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				return 0, frameErr(ErrDoubleFree, c.mfn(j))
			}
			if f.owner != DomIDCOW {
				if f.owner != dom {
					return 0, fmt.Errorf("%w: frame %d owned by %d, shared by %d", ErrNotOwner, c.mfn(j), f.owner, dom) //nephele:hotalloc-ok — validation failure, the call aborts
				}
				transfers++
			}
		}
		if short {
			return 0, frameErr(ErrDoubleFree, c.mfn(len(fr)))
		}
	}
	var perShard [maxShards]int
	for c.rewind(); c.next(); {
		fr, _ := c.frames()
		t := 0
		for j := range fr {
			f := &fr[j]
			if f.owner == DomIDCOW {
				f.refcount += int32(refs - 1)
				continue
			}
			f.owner = DomIDCOW
			f.refcount = int32(refs)
			t++
		}
		perShard[c.si] += t
	}
	if transfers > 0 {
		// Every transferred frame was validated as owned by dom, so the
		// per-owner accounting moves per shard instead of per frame.
		lay := m.lay
		m.beginAccount()
		for si := range lay.shards {
			if n := perShard[si]; n > 0 {
				sh := &lay.shards[si]
				sh.dropUsageLocked(dom, n)
				sh.usedByDom[DomIDCOW] += n //nephele:hotalloc-ok — one int-keyed entry per shard, re-inserted only after the shard's last shared frame went
				sh.shared.Add(int64(n))
			}
		}
		m.endAccount()
		meter.Charge(meter.Costs().PageShare, transfers)
	}
	return transfers, nil
}

// AddSharerN increments the reference count of a run of already-shared
// frames by n each, locking the shards the run touches once. Validation
// runs before any mutation. This is the 2nd..Nth-clone fast path:
// re-cloning an already-COW parent is nothing but sharer bumps.
//
//nephele:noalloc
func (m *Memory) AddSharerN(mfns []MFN, n int) error {
	return m.addSharerRuns(runCursor{mfns: mfns}, n)
}

// addSharerPTEs is AddSharerN over the frames referenced by a run of
// page-table entries (the 2nd..Nth-clone fast path works straight off the
// parent's table).
//
//nephele:noalloc
func (m *Memory) addSharerPTEs(ptes []pte, n int) error {
	return m.addSharerRuns(runCursor{ptes: ptes}, n)
}

// addSharerRuns bumps sharer counts in a single fused validate+mutate walk;
// on a validation failure every bump applied so far is subtracted back, so
// a failed call still leaves the pool untouched (the increment is its own
// exact inverse, which is what makes the fusion safe). One pass instead of
// two matters: this is the entire cost of a 2nd..Nth clone.
//
//nephele:noalloc
func (m *Memory) addSharerRuns(c runCursor, n int) error {
	mask, err := m.lockRuns(&c)
	if err != nil {
		return err
	}
	defer m.unlockMask(mask)
	runs := 0 // whole runs bumped so far
	for ; c.next(); runs++ {
		fr, short := c.frames()
		for j := range fr {
			f := &fr[j]
			if !f.inUse {
				bad := c.mfn(j)
				c.unbump(n, runs, j)
				return frameErr(ErrDoubleFree, bad)
			}
			if f.owner != DomIDCOW {
				bad := c.mfn(j)
				c.unbump(n, runs, j)
				return fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, bad, f.owner) //nephele:hotalloc-ok — validation failure, the call aborts
			}
			f.refcount += int32(n)
		}
		if short {
			bad := c.mfn(len(fr))
			c.unbump(n, runs, len(fr))
			return frameErr(ErrDoubleFree, bad)
		}
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
// Shards are never nested outside lockMask, so the private frame is allocated
// between two looks: the second one locks source and destination together and
// classifies again, which is all the handling a sharer that dropped out or a
// streamer that converted the frame in between needs.
func (m *Memory) resolveCOW(dom DomID, mfn MFN, meter *vclock.Meter) (MFN, error) {
	if int(mfn) >= m.total {
		return 0, frameErr(ErrBadFrame, mfn)
	}
	lay := m.lay
	sh := &lay.shards[lay.shardIdx(mfn)]
	var one [1]MFN
	var spare []MFN // one[:], the frame a copy-away fills, once one is known to be needed
	for {
		// The first look is a single-shard acquisition (lockShard, which the
		// multi-shard lock metrics leave out); the second takes source and
		// destination together.
		mask := uint32(1) << lay.shardIdx(mfn)
		if spare == nil {
			m.lockShard(mfn) // mfn is in range: cannot fail
		} else {
			mask |= 1 << lay.shardIdx(spare[0])
			m.lockMask(mask)
		}
		f, err := lay.frameAt(mfn)
		if err == nil && f.owner != DomIDCOW && f.owner != dom {
			err = fmt.Errorf("%w: frame %d owned by %d", ErrNotShared, mfn, f.owner)
		}
		if err != nil {
			m.unlockMask(mask)
			m.ReleaseN(dom, spare)
			return 0, err
		}
		if f.owner == dom && f.pledges > 0 {
			m.reownLocked(sh, f, DomIDCOW)
			meter.Charge(meter.Costs().PageShare, 1)
		}
		if f.pledges == 0 && (f.owner == dom || f.refcount == 1) {
			if f.owner == DomIDCOW {
				m.reownLocked(sh, f, dom)
			}
			m.unlockMask(mask)
			if spare != nil {
				m.ReleaseN(dom, spare)
			}
			meter.Charge(meter.Costs().PageUnshare, 1)
			return mfn, nil
		}
		if spare == nil {
			m.unlockMask(mask)
			if err := m.allocInto(dom, one[:], meter); err != nil {
				return 0, err
			}
			spare = one[:]
			continue
		}
		if f.data != nil {
			nf := lay.frame(spare[0])
			nf.data = getPage(false)
			*nf.data = *f.data
		}
		f.refcount--
		m.unlockMask(mask)
		meter.Charge(meter.Costs().PageUnshare, 1)
		return spare[0], nil
	}
}

// reownLocked moves frame f of sh between a domain and dom_cow, whichever way
// to says, with the usage and shared accounting; the sharer count is the
// caller's business. sh must be locked.
func (m *Memory) reownLocked(sh *shard, f *frame, to DomID) {
	sh.dropUsageLocked(f.owner, 1)
	f.owner = to
	sh.usedByDom[to]++
	delta := int64(1)
	if to != DomIDCOW {
		delta = -1
	}
	m.beginAccount()
	sh.shared.Add(delta)
	m.endAccount()
}

// ReleaseN releases a run of frames on behalf of dom, locking the shards
// the run touches (ascending) once and applying the domain-teardown rules
// per frame: dom_cow frames drop one sharer reference (freeing on the
// last), frames owned by dom are freed, and frames owned by anyone else
// are skipped. Bad frames are recorded and skipped; the first error is
// returned after the whole run is processed.
//
//nephele:noalloc
func (m *Memory) ReleaseN(dom DomID, mfns []MFN) error {
	return m.releaseRuns(dom, runCursor{mfns: mfns, mode: runSkipBad})
}

// releasePTEs is ReleaseN over the frames referenced by the present entries
// of a page table: releasing a whole space builds neither an MFN list nor a
// list of runs, however fragmented the table. Entries that are not present
// are skipped without error (an already torn-down mapping has nothing to
// release).
//
//nephele:noalloc
func (m *Memory) releasePTEs(dom DomID, ptes []pte) error {
	return m.releaseRuns(dom, runCursor{ptes: ptes, mode: runSkipAbsent})
}

// releaseRuns applies the domain-teardown rules in one locked walk. An
// out-of-range MFN outranks a per-frame error in what is returned.
//
//nephele:noalloc
func (m *Memory) releaseRuns(dom DomID, c runCursor) error {
	mask, _ := m.lockRuns(&c) // the skipping modes never fail here
	defer m.unlockMask(mask)
	lay := m.lay
	var firstErr error
	var ownFreed, cowFreed, zombied [maxShards]int
	for c.next() {
		sh := &lay.shards[c.si]
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
					cowFreed[c.si]++
					sh.resetFrameLocked(f, c.mfn(j))
				}
			case dom:
				if f.pledges > 0 {
					// Lazy children still claim the clone-time contents:
					// keep the frame as a dom_cow zombie.
					f.owner = DomIDCOW
					f.refcount = 0
					zombied[c.si]++
				} else {
					ownFreed[c.si]++
					sh.resetFrameLocked(f, c.mfn(j))
				}
			}
		}
		if short && firstErr == nil {
			firstErr = frameErr(ErrDoubleFree, c.mfn(len(fr)))
		}
	}
	m.beginAccount()
	for si := range lay.shards {
		sh := &lay.shards[si]
		if n := ownFreed[si]; n > 0 {
			sh.dropUsageLocked(dom, n)
			sh.free.Add(int64(n))
		}
		if n := cowFreed[si]; n > 0 {
			sh.dropUsageLocked(DomIDCOW, n)
			sh.shared.Add(-int64(n))
			sh.free.Add(int64(n))
		}
		if n := zombied[si]; n > 0 {
			sh.dropUsageLocked(dom, n)
			sh.usedByDom[DomIDCOW] += n //nephele:hotalloc-ok — one int-keyed entry per shard, re-inserted only after the shard's last shared frame went
			sh.shared.Add(int64(n))
		}
	}
	m.endAccount()
	if c.anyBad {
		return c.badFrame()
	}
	return firstErr
}

// Read copies the contents at (mfn, off) into buf. Reading a never-written
// frame yields zeroes.
func (m *Memory) Read(mfn MFN, off int, buf []byte) error {
	sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := m.lay.frameAt(mfn)
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
	sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := m.lay.frameAt(mfn)
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
	sh, err := m.lockShard(mfn)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	f, err := m.lay.frameAt(mfn)
	if err != nil {
		return err
	}
	putPage(f)
	f.data, f.sealed = (*[PageSize]byte)(page), true
	return nil
}

// CopyFrameN copies src[i] into dst[i] for every i, locking the shards both
// runs touch (ascending) and charging the meter once for the run
// (PageCopy × len). Validation of the slice lengths happens up front; a bad
// frame mid-run stops the copy there.
func (m *Memory) CopyFrameN(dst, src []MFN, meter *vclock.Meter) error {
	return m.copyRuns(dst, runCursor{mfns: src, mode: runSkipBad}, meter)
}

// copyFramePTEs is CopyFrameN with the frames a run of page-table entries
// references as the sources (the clone path copies a private extent straight
// off the parent's table).
func (m *Memory) copyFramePTEs(dst []MFN, src []pte, meter *vclock.Meter) error {
	return m.copyRuns(dst, runCursor{ptes: src, mode: runSkipBad}, meter)
}

// copyRuns is CopyFrameN's body over either source form.
func (m *Memory) copyRuns(dst []MFN, s runCursor, meter *vclock.Meter) error {
	if n := len(s.mfns) + len(s.ptes); len(dst) != n {
		return fmt.Errorf("mem: CopyFrameN with %d dst, %d src frames", len(dst), n)
	}
	// An out-of-range MFN only drops out of the lock mask; copyFrameLocked
	// reports it.
	d := runCursor{lay: m.lay, mfns: dst, mode: runSkipBad}
	s.lay = m.lay
	mask := d.mask() | s.mask()
	m.lockMask(mask)
	defer m.unlockMask(mask)
	for i := range dst {
		if err := m.lay.copyFrameLocked(dst[i], s.at(i)); err != nil {
			return err
		}
	}
	meter.Charge(meter.Costs().PageCopy, len(dst))
	return nil
}

// copyFrameLocked copies src into dst; the shards of both must be locked.
func (lay *layout) copyFrameLocked(dst, src MFN) error {
	fs, err := lay.frameAt(src)
	if err != nil {
		return err
	}
	fd, err := lay.frameAt(dst)
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
// the returned pages. The shards the run touches are locked once, in
// ascending order, so the capture is one coherent pass even while other
// shards keep allocating — and a concurrent ReleaseN on the same shards
// orders strictly before or after the whole snapshot.
func (m *Memory) SnapshotFrames(mfns []MFN) ([][]byte, error) {
	// An out-of-range MFN only drops out of the lock mask; frameAt reports it.
	c := runCursor{mfns: mfns, mode: runSkipBad}
	mask, _ := m.lockRuns(&c)
	defer m.unlockMask(mask)
	out := make([][]byte, len(mfns))
	for i, mfn := range mfns {
		f, err := m.lay.frameAt(mfn)
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
