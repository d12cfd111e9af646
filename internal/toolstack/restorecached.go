package toolstack

import (
	"fmt"

	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// RestoreCachedOp restores an image through the content-addressed cache.
// The image is hashed (span "image-hash"); on a hit the child is created
// fresh and populated by COW-sharing the cache's resident chunk frames
// (span "restore-cached", Space.AdoptShared per data run) — O(page-table
// writes) instead of O(pages). On a miss it falls back to the plain
// Restore, with its exact virtual-time charging, and populates the
// cache as a side effect; an insert failure is swallowed (the restore
// stands, the store rolled back) and counted in the store stats.
//
// The bool result reports whether the cache served the restore.
func (x *XL) RestoreCachedOp(ctx obs.OpCtx, store *ImageStore, img *Image, name string) (*Record, bool, error) {
	_, hspan := ctx.StartSpan("image-hash")
	key := img.CacheKey()
	hspan.End()

	ci := store.touch(key)
	if ci == nil {
		rec, err := x.Restore(img, name, ctx.Meter())
		if err != nil {
			return nil, false, err
		}
		if err := store.Insert(img, ctx.Meter()); err != nil {
			store.noteInsertFailure()
		}
		return rec, false, nil
	}

	rctx, rspan := ctx.StartSpan("restore-cached")
	defer rspan.End()
	meter := rctx.Meter()
	cfg := img.Config
	cfg.Name = name
	rec, err := x.Create(cfg, meter)
	if err != nil {
		return nil, true, err
	}
	fail := func(err error) (*Record, bool, error) {
		x.Destroy(rec.ID, nil)
		return nil, true, err
	}
	if err := store.faultCheckRestore(); err != nil {
		return fail(err)
	}
	dom, err := x.HV.Domain(rec.ID)
	if err != nil {
		return fail(err)
	}
	space := dom.Space()
	if space.Pages() < img.npages {
		return fail(fmt.Errorf("toolstack: image has %d pages, domain %d", img.npages, space.Pages()))
	}

	// Only regular pages can adopt cache frames; the top-of-memory
	// special pages (start_info, console and xenstore rings) keep their
	// private frames and receive the image's pages by reference.
	limit := img.npages
	if limit >= 3 {
		limit -= 3
	}
	adopted := 0
	// place adopts one stretch of cache frames at pfn, clipping at limit
	// and falling back to a per-page install above it. pages parallels
	// mfns and provides the fallback pages.
	place := func(pfn mem.PFN, mfns []mem.MFN, pages [][]byte) error {
		cut := len(mfns)
		if int(pfn)+cut > limit {
			cut = limit - int(pfn)
			if cut < 0 {
				cut = 0
			}
		}
		if cut > 0 {
			if err := space.AdoptShared(rctx, store.dom, pfn, mfns[:cut]); err != nil {
				return err
			}
			adopted += cut
		}
		for j := cut; j < len(mfns); j++ {
			if data := pages[j]; data != nil {
				if err := space.WritePage(pfn+mem.PFN(j), data, meter); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for ri := range img.runs {
		r := &img.runs[ri]
		switch {
		case r.isAlias:
			// An alias run repeats earlier frames; in the cached child it
			// COW-shares the very chunks backing the source runs, walking
			// each covered source run once.
			err := img.forEachAliasSource(r, func(off, src, base, n int) error {
				return place(r.start+mem.PFN(off), ci.runs[src].chunk.mfns[base:base+n], img.runs[src].pages[base:base+n])
			})
			if err != nil {
				return fail(err)
			}
		case r.pages != nil:
			if err := place(r.start, ci.runs[ri].chunk.mfns, r.pages); err != nil {
				return fail(err)
			}
		default:
			// Zero run: the fresh domain's pages already read as zeroes.
		}
	}
	store.noteAdopted(adopted)
	return rec, true, nil
}

// faultCheckRestore evaluates the cached-restore fault point under the
// store's registry.
func (st *ImageStore) faultCheckRestore() error {
	st.mu.Lock()
	r := st.faults
	st.mu.Unlock()
	return r.Check(fault.PointCacheRestore)
}
