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
	// start and non-overlapping, with all-zero written pages scrubbed to
	// nil slots.
	runs []mem.SnapshotRun

	// infos (one entry per run, a data run's FNV-1a content hash
	// included) and the image-wide cache key are the content-addressed
	// identity, computed on first use; hashed is set once they are final.
	// Hashing never mutates runs. See ensureHashed.
	infos  []RunInfo // parallel to runs
	key    uint64
	hashed bool

	// prev is the nearest hashed earlier image of the same live domain
	// (set by Save, cleared once this image is hashed itself).
	prev *Image
}

// Pages reports the number of frames in the image: the full allocated VM
// memory, however compactly the extents encode it.
func (img *Image) Pages() int { return img.npages }

// Runs reports the number of extents encoding the image.
func (img *Image) Runs() int { return len(img.runs) }

// isDataRun reports whether r stores pages: neither a zero nor an alias run.
func isDataRun(r *mem.SnapshotRun) bool { return !r.IsAlias && r.Pages != nil }

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
func (img *Image) pageAt(pfn mem.PFN) []byte {
	i := img.runIndexOf(pfn)
	if i < 0 {
		return nil
	}
	r := &img.runs[i]
	if r.IsAlias {
		src := r.Alias + (pfn - r.Start)
		j := img.runIndexOf(src)
		if j < 0 {
			return nil
		}
		sr := &img.runs[j]
		if sr.IsAlias || sr.Pages == nil {
			return nil
		}
		return sr.Pages[src-sr.Start]
	}
	if r.Pages == nil {
		return nil
	}
	return r.Pages[pfn-r.Start]
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
		if isDataRun(r) {
			if err := place(r.Start, ri, 0, r.Count); err != nil {
				return err
			}
			continue
		}
		for off := 0; r.IsAlias && off < r.Count; {
			pfn := r.Alias + mem.PFN(off)
			i := img.runIndexOf(pfn)
			if i < 0 {
				off++
				continue
			}
			sr := &img.runs[i]
			n := int(sr.Start) + sr.Count - int(pfn)
			if rest := r.Count - off; n > rest {
				n = rest
			}
			if isDataRun(sr) {
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
	runs, err := space.SnapshotRuns()
	if err != nil {
		return nil, fmt.Errorf("toolstack: save domain %d: %w", id, err)
	}
	for _, r := range runs {
		for j, data := range r.Pages {
			if allZero(data) {
				r.Pages[j] = nil
			}
		}
	}
	img := &Image{Config: rec.Config, npages: n, runs: runs}
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
		for j, data := range img.runs[src].Pages[base : base+n] {
			if data == nil {
				continue
			}
			if err := space.WritePage(ctx.WithMeter(nil), pfn+mem.PFN(j), data); err != nil {
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

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
