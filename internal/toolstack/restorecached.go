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
		rec, err := x.restore(ctx, img, name)
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
	cfg := img.Config
	cfg.Name = name
	rec, err := x.create(rctx, cfg)
	if err != nil {
		return nil, true, err
	}
	fail := func(err error) (*Record, bool, error) {
		x.Destroy(rec.ID, nil)
		return nil, true, err
	}
	if err := store.faults.Check(fault.PointCacheRestore); err != nil {
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
	// Each stretch adopts the cache frames backing its source run (for an
	// alias stretch, the very chunks behind the run it repeats), clipped
	// at limit; the pages above limit are installed by reference.
	err = img.placeRuns(func(pfn mem.PFN, src, base, n int) error {
		mfns, pages := ci.chunks[src].mfns[base:base+n], img.runs[src].Pages[base:base+n]
		cut := n
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
		for j := cut; j < n; j++ {
			if data := pages[j]; data != nil {
				if err := space.WritePage(rctx, pfn+mem.PFN(j), data); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	store.noteAdopted(adopted)
	return rec, true, nil
}
