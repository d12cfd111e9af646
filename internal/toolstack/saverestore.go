package toolstack

import (
	"fmt"
	"sort"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// Image is a saved domain image: the configuration plus the full contents
// of the guest memory, encoded as run-length extents rather than one slice
// per page. Zero runs (pages the guest never wrote) store nothing, alias
// runs (family-shared mappings that repeat earlier frames) store nothing,
// and only genuinely distinct written pages carry data. A page in an image
// is immutable: Save takes the frames' own pages, sealed (mem.Space
// SnapshotRuns), and Restore installs them by reference, so the simulator
// itself copies nothing. The model is unchanged by that — restore still
// charges for the entire allocated VM memory regardless of how much the
// guest actually used (Pages() reports the full on-wire count), which is
// why restore is consistently slower than boot in Fig. 4.
type Image struct {
	Config DomainConfig
	npages int // full allocated page count (the on-wire size)
	// runs are the captured extents (mem.Space.SnapshotRuns), sorted by
	// start and non-overlapping; pages is the one page list their data
	// runs index, with all-zero written pages scrubbed to nil slots.
	runs  []mem.SnapshotRun
	pages []*[mem.PageSize]byte

	// hashes (one per run: a data run's FNV-1a content hash, 0 for the
	// others) and the image-wide cache key are the content-addressed
	// identity, computed on first use; hashes is nil until then. Hashing
	// never mutates runs or pages. See ensureHashed.
	hashes []uint64
	key    uint64

	// prev is the nearest hashed earlier image of the same live domain
	// (set by Save, cleared once this image is hashed itself).
	prev *Image
}

// Pages reports the number of frames in the image: the full allocated VM
// memory, however compactly the extents encode it.
func (img *Image) Pages() int { return img.npages }

// Runs reports the number of extents encoding the image.
func (img *Image) Runs() int { return len(img.runs) }

// runPages returns the page slots of data run i.
func (img *Image) runPages(i int) []*[mem.PageSize]byte {
	r := &img.runs[i]
	return img.pages[r.Page : r.Page+r.Count : r.Page+r.Count]
}

// runIndexOf binary-searches the sorted runs for the one covering pfn,
// returning -1 when no run does.
func (img *Image) runIndexOf(pfn mem.PFN) int {
	i := sort.Search(len(img.runs), func(k int) bool {
		r := &img.runs[k]
		return r.Start+mem.PFN(r.Count) > pfn
	})
	if i == len(img.runs) || pfn < img.runs[i].Start {
		return -1
	}
	return i
}

// pageAt resolves the stored contents of one pfn, following at most one
// level of alias indirection (aliases always point into fresh runs). nil
// means the page reads as zeroes.
func (img *Image) pageAt(pfn mem.PFN) *[mem.PageSize]byte {
	i := img.runIndexOf(pfn)
	if i < 0 {
		return nil
	}
	r := &img.runs[i]
	if r.Kind == mem.RunAlias {
		pfn = mem.PFN(r.Alias) + (pfn - r.Start)
		if i = img.runIndexOf(pfn); i < 0 {
			return nil
		}
		r = &img.runs[i]
	}
	if r.Kind != mem.RunData {
		return nil
	}
	return img.pages[int(r.Page)+int(pfn-r.Start)]
}

// placeRuns is the run walk both restore paths share. Zero runs are
// skipped (a fresh domain's pages already read as zeroes), and a data run
// is handed to place whole. An alias run is handed over source run by
// source run, each covered run resolved once instead of once per page;
// zero source portions are skipped, and so are nested aliases: aliases
// always point into fresh runs, so a nested one contributes zeroes. place
// receives the first destination pfn, the index of the data run the pages
// come from, the offset of the first page within it and the page count.
// The walk stops at place's first error.
func (img *Image) placeRuns(place func(pfn mem.PFN, src, base, n int) error) error {
	for ri := range img.runs {
		r := &img.runs[ri]
		switch r.Kind {
		case mem.RunData:
			if err := place(r.Start, ri, 0, int(r.Count)); err != nil {
				return err
			}
			continue
		case mem.RunZero:
			continue
		}
		for off := 0; off < int(r.Count); {
			pfn := mem.PFN(r.Alias) + mem.PFN(off)
			i := img.runIndexOf(pfn)
			if i < 0 {
				off++
				continue
			}
			sr := &img.runs[i]
			n := int(sr.Start) + int(sr.Count) - int(pfn)
			if rest := int(r.Count) - off; n > rest {
				n = rest
			}
			if sr.Kind == mem.RunData {
				if err := place(r.Start+mem.PFN(off), i, int(pfn-sr.Start), n); err != nil {
					return err
				}
			}
			off += n
		}
	}
	return nil
}

// Save serializes a running domain to an image (the domain keeps running;
// the paper's experiment saves and then restores a fresh instance each
// iteration).
func (x *XL) Save(id hv.DomID, meter *vclock.Meter) (*Image, error) {
	rec, err := x.Record(id)
	if err != nil {
		return nil, err
	}
	dom, err := x.HV.Domain(id)
	if err != nil {
		return nil, err
	}
	space := dom.Space()
	n := space.Pages()
	// SnapshotRuns captures the whole space in one coherent pass as
	// extents: never-written ranges collapse into zero runs with no
	// per-page storage, repeated family-shared frames into alias runs,
	// so only pages the guest actually touched need the zero scan. The
	// pages are the frames' own, sealed: nothing is copied.
	runs, pages, err := space.SnapshotRuns()
	if err != nil {
		return nil, fmt.Errorf("toolstack: save domain %d: %w", id, err)
	}
	for j, p := range pages {
		if *p == zeroPage {
			pages[j] = nil
		}
	}
	img := &Image{Config: rec.Config, npages: n, runs: runs, pages: pages}
	// Remember the image as the domain's latest, and let it inherit run
	// hashes from the nearest hashed one before it. Destroy forgets it.
	if _, live := x.byID[id]; live {
		img.prev = x.lastSave[id].hashedAncestor()
		x.lastSave[id] = img
	}
	meter.Charge(meter.Costs().ImagePageSave, n)
	return img, nil
}

// Restore instantiates a new domain from an image under a fresh name. The
// toolstack path mirrors Create, then every stored page of the image is
// installed in the new domain by reference (Space.WritePage) and the copy
// of the whole image memory is charged.
func (x *XL) Restore(img *Image, name string, meter *vclock.Meter) (*Record, error) {
	return x.restore(obs.Ctx(meter), img, name)
}

// restore is Restore on an operation context: a cache miss restores inside
// its caller's span.
func (x *XL) restore(ctx obs.OpCtx, img *Image, name string) (*Record, error) {
	cfg := img.Config
	cfg.Name = name
	rec, err := x.create(ctx, cfg)
	if err != nil {
		return nil, err
	}
	dom, err := x.HV.Domain(rec.ID)
	if err != nil {
		return nil, err
	}
	space := dom.Space()
	if space.Pages() < img.npages {
		x.Destroy(rec.ID, nil)
		return nil, fmt.Errorf("toolstack: image has %d pages, domain %d", img.npages, space.Pages())
	}
	err = img.placeRuns(func(pfn mem.PFN, src, base, n int) error {
		for j, p := range img.runPages(src)[base : base+n] {
			if p == nil {
				continue
			}
			if err := space.WritePage(ctx.WithMeter(nil), pfn+mem.PFN(j), p[:]); err != nil {
				return fmt.Errorf("toolstack: restore pfn %d: %w", pfn+mem.PFN(j), err)
			}
		}
		return nil
	})
	if err != nil {
		x.Destroy(rec.ID, nil)
		return nil, err
	}
	// The entire allocated memory is charged, used or not (§6.1).
	meter := ctx.Meter()
	meter.Charge(meter.Costs().ImagePageRestore, img.npages)
	return rec, nil
}

// zeroPage is what Save compares each captured page with: an all-zero
// page is stored as a nil slot. The array compare is one memequal.
var zeroPage [mem.PageSize]byte
