package mem

import (
	"fmt"

	"nephele/internal/fault"
	"nephele/internal/obs"
)

// Restride rebuilds the pool's shard slice at a new power-of-two shard
// count n (1..MaxShards), splitting or merging free lists, per-shard
// atomics and lazily-materialized frame metadata. See RestrideOp for the
// protocol; Restride is the uninstrumented form.
func (m *Memory) Restride(n int) error { return m.RestrideOp(obs.OpCtx{}, n) }

// RestrideOp changes the number of MFN-range shards the pool is split into
// (DESIGN.md §14). The re-stride epoch protocol:
//
//  1. Take restrideMu, the writer lock ordered strictly before every shard
//     lock, serializing re-stride writers against each other.
//  2. Quiesce: lock every shard of the current layout through the one
//     designated multi-shard acquisition point. From here no mutator holds
//     or can take a shard lock, and every in-flight operation has either
//     completed or not yet passed its post-lock layout validation.
//  3. Rebuild: derive a fresh layout at the new stride from the quiesced
//     frame state — a pure function of that state, so two pools with equal
//     state re-stride to byte-identical layouts regardless of history.
//  4. Publish: one atomic pointer store, then release the old shard locks.
//     Operations that pinned the old layout fail their validation, drop
//     their (old-layout) locks and retry against the new one.
//
// No MFN changes, no sharer count changes, no virtual-time charge is made:
// the rebuild moves metadata between shards but every observable per-frame
// and per-domain fact is byte-identical across the swap. A re-stride to the
// current count is a no-op; an injected fault at PointMemRestride aborts
// between quiesce and publish, leaving the old layout in place (rollback is
// inherent — nothing is published until step 4).
func (m *Memory) RestrideOp(ctx obs.OpCtx, n int) error {
	if n < 1 || n > MaxShards || n&(n-1) != 0 {
		return fmt.Errorf("%w: %d", ErrBadStride, n)
	}
	m.restrideMu.Lock()
	defer m.restrideMu.Unlock()
	old := m.lay.Load()
	if len(old.shards) == n {
		return nil
	}
	mask := old.allMask()
	m.lockMask(old, mask)
	if err := ctx.Faults(nil).Check(fault.PointMemRestride); err != nil {
		m.unlockMask(old, mask)
		return err
	}
	next := restripe(old, n)
	m.lay.Store(next)
	m.unlockMask(old, mask)
	if mm := m.metrics.Load(); mm != nil {
		mm.restrides.Inc()
	}
	return nil
}

// restripe builds the successor layout at shard count n from a fully
// quiesced predecessor. The rebuild is canonical, not historical: frame
// metadata moves by value to the shard covering its MFN, each new shard's
// watermark is one past its highest in-use frame, its recycled stack holds
// every free sub-watermark frame in descending MFN order (so the LIFO pop
// hands out ascending MFNs, the same order a fresh shard would), and the
// usage maps and atomic counters are recounted from frame state. Two pools
// with identical frame state therefore restripe identically, even if their
// free lists were shuffled differently by allocation history.
func restripe(old *layout, n int) *layout {
	next := newLayout(old.total, n, old.epoch+1)
	for ci, ch := range old.chunks {
		for off := range ch {
			f := &ch[off]
			if !f.inUse {
				continue
			}
			mfn := MFN(ci)<<old.cshift + MFN(off)
			nsh := &next.shards[next.shardIdx(mfn)]
			// Frames arrive in ascending MFN order: the last one to land in
			// a shard sets its watermark.
			n := int(mfn-nsh.lo) + 1
			next.growLocked(nsh, n)
			*next.frame(mfn) = *f
			nsh.watermark = n
		}
	}
	for ni := range next.shards {
		nsh := &next.shards[ni]
		inUse := 0
		sharedCt := 0
		for off := nsh.watermark - 1; off >= 0; off-- {
			f := next.frame(nsh.lo + MFN(off))
			if !f.inUse {
				// Sub-watermark holes re-enter the free list; the zero
				// frame value and a resetFrameLocked frame are observably
				// identical (owner aside, which no read path exposes for
				// free frames).
				nsh.recycled.push(nsh.lo + MFN(off))
				continue
			}
			inUse++
			nsh.usedByDom[f.owner]++
			if f.owner == DomIDCOW {
				sharedCt++
			}
		}
		nsh.free.Store(int64(nsh.size - inUse))
		nsh.shared.Store(int64(sharedCt))
	}
	return next
}
